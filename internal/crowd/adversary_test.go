package crowd

import (
	"testing"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/rng"
)

// adversarialScenario builds an instance where a fraction of workers always
// answer WRONG (q = 0) instead of randomly — strictly nastier than the
// spammer-hammer prior.
func adversarialScenario(t *testing.T, seed uint64, numTasks, l, gamma int, pAdversary float64) (*Labels, []int, []float64) {
	t.Helper()
	r := rng.New(seed)
	a, err := RegularAssignment(numTasks, l, gamma, r)
	if err != nil {
		t.Fatal(err)
	}
	truth := RandomLabelsTruth(numTasks, r)
	q := make([]float64, a.NumWorkers)
	for j := range q {
		if r.Bernoulli(pAdversary) {
			q[j] = 0 // always lies
		} else {
			q[j] = 0.9
		}
	}
	labels, err := GenerateLabels(a, truth, q, r)
	if err != nil {
		t.Fatal(err)
	}
	return labels, truth, q
}

func TestInferSurvivesAdversaries(t *testing.T) {
	// 30% always-wrong adversaries. Message passing learns negative
	// reliabilities for them and effectively flips their answers, so the
	// error should end up well below majority voting's.
	var kosTotal, mvTotal float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		labels, truth, _ := adversarialScenario(t, uint64(500+trial), 300, 5, 15, 0.3)
		res := Infer(labels, InferenceOptions{})
		kosTotal += eval.BitErrorRate(truth, res.Labels)
		mvTotal += eval.BitErrorRate(truth, MajorityVote(labels))
	}
	kos, mv := kosTotal/trials, mvTotal/trials
	if kos >= mv {
		t.Fatalf("inference error %.4f not below MV %.4f under adversaries", kos, mv)
	}
	if kos > 0.05 {
		t.Fatalf("inference error %.4f too high with 70%% reliable workers", kos)
	}
}

func TestInferAdversaryReliabilityNegative(t *testing.T) {
	labels, _, q := adversarialScenario(t, 21, 400, 5, 20, 0.25)
	res := Infer(labels, InferenceOptions{})
	var advMean, honMean float64
	var na, nh int
	for j, qj := range q {
		if qj == 0 {
			advMean += res.WorkerReliability[j]
			na++
		} else {
			honMean += res.WorkerReliability[j]
			nh++
		}
	}
	advMean /= float64(na)
	honMean /= float64(nh)
	if advMean >= 0 {
		t.Fatalf("adversary mean message %v, want negative (anti-correlated)", advMean)
	}
	if honMean <= 0 {
		t.Fatalf("honest mean message %v, want positive", honMean)
	}
}

func TestInferSingleWorkerDegenerate(t *testing.T) {
	// One worker labelling every task: inference must not crash and should
	// just echo that worker's answers (up to global sign).
	r := rng.New(22)
	a := &Assignment{
		NumTasks:    10,
		NumWorkers:  1,
		TaskWorkers: make([][]int, 10),
	}
	for i := range a.TaskWorkers {
		a.TaskWorkers[i] = []int{0}
	}
	truth := RandomLabelsTruth(10, r)
	q := []float64{1}
	labels, err := GenerateLabels(a, truth, q, r)
	if err != nil {
		t.Fatal(err)
	}
	res := Infer(labels, InferenceOptions{})
	if len(res.Labels) != 10 {
		t.Fatalf("labels = %d", len(res.Labels))
	}
	// A single worker carries no cross-information: messages are zero and
	// every score ties to the +1 fallback. The requirement is only that the
	// degenerate graph neither crashes nor emits invalid labels.
	for i, l := range res.Labels {
		if l != 1 && l != -1 {
			t.Fatalf("label %d = %d", i, l)
		}
	}
	_ = truth
}

func TestInferEmptyTaskTolerated(t *testing.T) {
	// A task with no labels must not crash and gets a deterministic +1.
	a := &Assignment{
		NumTasks:    2,
		NumWorkers:  1,
		TaskWorkers: [][]int{{0}, {}},
	}
	labels := &Labels{Assignment: a, Values: [][]int8{{1}, {}}}
	res := Infer(labels, InferenceOptions{})
	if res.Labels[1] != 1 {
		t.Fatalf("unlabelled task resolved to %d, want +1 tie-break", res.Labels[1])
	}
}

func TestMajorityVoteEmptyTask(t *testing.T) {
	a := &Assignment{
		NumTasks:    1,
		NumWorkers:  0,
		TaskWorkers: [][]int{{}},
	}
	labels := &Labels{Assignment: a, Values: [][]int8{{}}}
	if got := MajorityVote(labels); got[0] != 1 {
		t.Fatalf("empty-task vote = %d, want +1", got[0])
	}
}

func TestEMDawidSkeneFlipsAdversaries(t *testing.T) {
	labels, truth, _ := adversarialScenario(t, 23, 300, 5, 15, 0.3)
	got, acc := emDawidSkene(labels, 25)
	if ber := eval.BitErrorRate(truth, got); ber > 0.05 {
		t.Fatalf("EM error %v under adversaries", ber)
	}
	// At least one adversary should receive accuracy < 0.5.
	low := false
	for _, a := range acc {
		if a < 0.4 {
			low = true
			break
		}
	}
	if !low {
		t.Fatal("EM did not detect any low-accuracy worker")
	}
}

func TestSpearmanAggregateDefaultsRounds(t *testing.T) {
	labels, truth, _ := spammerScenario(t, 24, 100, 5, 10, 0.7)
	a, _ := SpearmanAggregate(labels, 0) // rounds default
	b, _ := SpearmanAggregate(labels, 3)
	if eval.BitErrorRate(a, b) != 0 {
		t.Fatal("default rounds differ from explicit 3")
	}
	_ = truth
}
