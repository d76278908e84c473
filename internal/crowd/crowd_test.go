package crowd

import (
	"math"
	"testing"
	"testing/quick"

	"crowdwifi/internal/eval"
	"crowdwifi/internal/geo"
	"crowdwifi/internal/rng"
)

func TestRegularAssignmentDegrees(t *testing.T) {
	r := rng.New(1)
	a, err := RegularAssignment(100, 5, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWorkers != 50 {
		t.Fatalf("workers = %d, want 100·5/10 = 50", a.NumWorkers)
	}
	for i, ws := range a.TaskWorkers {
		if len(ws) != 5 {
			t.Fatalf("task %d has %d workers, want 5", i, len(ws))
		}
		seen := map[int]bool{}
		for _, j := range ws {
			if seen[j] {
				t.Fatalf("task %d labelled twice by worker %d", i, j)
			}
			seen[j] = true
		}
	}
	degree := make([]int, a.NumWorkers)
	for _, ws := range a.TaskWorkers {
		for _, j := range ws {
			degree[j]++
		}
	}
	for j, n := range degree {
		if n != 10 {
			t.Fatalf("worker %d has %d tasks, want 10", j, n)
		}
	}
}

func TestRegularAssignmentErrors(t *testing.T) {
	r := rng.New(2)
	if _, err := RegularAssignment(0, 5, 5, r); err == nil {
		t.Fatal("expected error for zero tasks")
	}
	if _, err := RegularAssignment(10, 3, 7, r); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := RegularAssignment(2, 4, 8, r); err == nil {
		t.Fatal("expected error when ℓ exceeds worker count")
	}
}

func TestRegularAssignmentProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nTasks := 20 + int(seed%30)
		l, gamma := 4, 8
		if (nTasks*l)%gamma != 0 {
			nTasks = (nTasks / 2) * 2 // make divisible
		}
		a, err := RegularAssignment(nTasks, l, gamma, r)
		if err != nil {
			return false
		}
		edges := 0
		for _, ws := range a.TaskWorkers {
			edges += len(ws)
		}
		return edges == nTasks*l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpammerHammerValues(t *testing.T) {
	r := rng.New(3)
	qs := SpammerHammer(2000, 0.7, r)
	hammers := 0
	for _, q := range qs {
		switch q {
		case 1:
			hammers++
		case 0.5:
		default:
			t.Fatalf("reliability %v not in {0.5, 1}", q)
		}
	}
	frac := float64(hammers) / 2000
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("hammer fraction %v, want ~0.7", frac)
	}
}

func TestGenerateLabelsHammersAlwaysCorrect(t *testing.T) {
	r := rng.New(4)
	a, err := RegularAssignment(50, 4, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	truth := RandomLabelsTruth(50, r)
	q := make([]float64, a.NumWorkers)
	for j := range q {
		q[j] = 1 // all hammers
	}
	l, err := GenerateLabels(a, truth, q, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, vals := range l.Values {
		for _, v := range vals {
			if int(v) != truth[i] {
				t.Fatalf("hammer answered incorrectly on task %d", i)
			}
		}
	}
}

func TestGenerateLabelsErrors(t *testing.T) {
	r := rng.New(5)
	a, _ := RegularAssignment(10, 2, 4, r)
	if _, err := GenerateLabels(a, make([]int, 3), make([]float64, a.NumWorkers), r); err == nil {
		t.Fatal("expected truth length error")
	}
	if _, err := GenerateLabels(a, make([]int, 10), make([]float64, 1), r); err == nil {
		t.Fatal("expected reliability length error")
	}
}

// spammerScenario builds a labelled instance with a given hammer fraction.
func spammerScenario(t *testing.T, seed uint64, numTasks, l, gamma int, pHammer float64) (*Labels, []int, []float64) {
	t.Helper()
	r := rng.New(seed)
	a, err := RegularAssignment(numTasks, l, gamma, r)
	if err != nil {
		t.Fatal(err)
	}
	truth := RandomLabelsTruth(numTasks, r)
	q := SpammerHammer(a.NumWorkers, pHammer, r)
	labels, err := GenerateLabels(a, truth, q, r)
	if err != nil {
		t.Fatal(err)
	}
	return labels, truth, q
}

func TestMajorityVoteAllHammers(t *testing.T) {
	labels, truth, _ := spammerScenario(t, 6, 100, 5, 10, 1.0)
	got := MajorityVote(labels)
	if ber := eval.BitErrorRate(truth, got); ber != 0 {
		t.Fatalf("majority vote with all hammers has error %v", ber)
	}
}

func TestInferBeatsMajorityVote(t *testing.T) {
	// The paper's core crowdsourcing claim (Fig. 7): iterative inference has
	// lower bit-error than majority voting under spammer-hammer workers.
	var mvTotal, kosTotal float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		labels, truth, _ := spammerScenario(t, uint64(100+trial), 300, 5, 15, 0.5)
		mv := MajorityVote(labels)
		kos := Infer(labels, InferenceOptions{})
		mvTotal += eval.BitErrorRate(truth, mv)
		kosTotal += eval.BitErrorRate(truth, kos.Labels)
	}
	mvErr, kosErr := mvTotal/trials, kosTotal/trials
	if kosErr >= mvErr {
		t.Fatalf("KOS error %.4f not below MV error %.4f", kosErr, mvErr)
	}
}

func TestInferApproachesOracle(t *testing.T) {
	var kosTotal, oracleTotal float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		labels, truth, q := spammerScenario(t, uint64(200+trial), 300, 15, 15, 0.6)
		kos := Infer(labels, InferenceOptions{})
		or, err := Oracle(labels, q)
		if err != nil {
			t.Fatal(err)
		}
		kosTotal += eval.BitErrorRate(truth, kos.Labels)
		oracleTotal += eval.BitErrorRate(truth, or)
	}
	kosErr, oracleErr := kosTotal/trials, oracleTotal/trials
	if kosErr < oracleErr-1e-9 {
		t.Fatalf("KOS error %.4f below the oracle bound %.4f — impossible", kosErr, oracleErr)
	}
	if kosErr > oracleErr+0.05 {
		t.Fatalf("KOS error %.4f far from oracle %.4f", kosErr, oracleErr)
	}
}

func TestInferZerothIterationIsMajorityVote(t *testing.T) {
	// With deterministic init y=1 and MaxIter=1 the first x-messages are
	// vote sums; labels should match MV except possibly on ties.
	labels, _, _ := spammerScenario(t, 7, 200, 5, 10, 0.5)
	mv := MajorityVote(labels)
	one := Infer(labels, InferenceOptions{MaxIter: 1})
	diff := 0
	for i := range mv {
		if mv[i] != one.Labels[i] {
			diff++
		}
	}
	if float64(diff) > 0.1*float64(len(mv)) {
		t.Fatalf("1-iteration inference differs from MV on %d/%d tasks", diff, len(mv))
	}
}

func TestInferWorkerReliabilitySeparatesSpammers(t *testing.T) {
	labels, _, q := spammerScenario(t, 8, 500, 5, 25, 0.5)
	res := Infer(labels, InferenceOptions{})
	var hammerMean, spammerMean float64
	var nh, ns int
	for j, qj := range q {
		if qj == 1 {
			hammerMean += res.WorkerReliability[j]
			nh++
		} else {
			spammerMean += res.WorkerReliability[j]
			ns++
		}
	}
	hammerMean /= float64(nh)
	spammerMean /= float64(ns)
	if hammerMean <= spammerMean {
		t.Fatalf("hammer mean reliability %.2f not above spammer mean %.2f", hammerMean, spammerMean)
	}
}

func TestInferRandomInitDeterministicGivenSeed(t *testing.T) {
	labels, _, _ := spammerScenario(t, 9, 100, 5, 10, 0.6)
	a := Infer(labels, InferenceOptions{RandomInit: true, Seed: 42})
	b := Infer(labels, InferenceOptions{RandomInit: true, Seed: 42})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("random-init inference not reproducible with the same seed")
		}
	}
}

func TestOracleErrors(t *testing.T) {
	labels, _, _ := spammerScenario(t, 10, 20, 2, 4, 0.5)
	if _, err := Oracle(labels, []float64{0.5}); err == nil {
		t.Fatal("expected reliability length error")
	}
}

func TestSpearmanAggregateBeatsNothing(t *testing.T) {
	// Sanity: Spearman aggregation should be at least roughly as good as MV
	// on a hammer-rich instance and must return a weight per worker.
	labels, truth, _ := spammerScenario(t, 11, 200, 5, 10, 0.7)
	got, weights := SpearmanAggregate(labels, 3)
	if len(weights) != labels.Assignment.NumWorkers {
		t.Fatalf("weights length %d", len(weights))
	}
	if ber := eval.BitErrorRate(truth, got); ber > 0.3 {
		t.Fatalf("Spearman aggregate error %v too high", ber)
	}
}

func TestSpearmanRho(t *testing.T) {
	// Perfect agreement and perfect inversion.
	a := []float64{1, 2, 3, 4}
	if rho := SpearmanRho(a, a); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho(self) = %v", rho)
	}
	b := []float64{4, 3, 2, 1}
	if rho := SpearmanRho(a, b); math.Abs(rho+1) > 1e-12 {
		t.Fatalf("rho(reversed) = %v", rho)
	}
	if !math.IsNaN(SpearmanRho(a, []float64{1, 1, 1, 1})) {
		t.Fatal("rho against constant should be NaN")
	}
	if !math.IsNaN(SpearmanRho([]float64{1}, []float64{2})) {
		t.Fatal("rho of singletons should be NaN")
	}
}

func TestEMDawidSkeneRecoversAccuracies(t *testing.T) {
	labels, truth, q := spammerScenario(t, 12, 400, 5, 20, 0.5)
	got, acc := emDawidSkene(labels, 20)
	if ber := eval.BitErrorRate(truth, got); ber > 0.15 {
		t.Fatalf("EM label error %v", ber)
	}
	// Estimated accuracies should separate the classes.
	var hm, sm float64
	var nh, ns int
	for j, qj := range q {
		if qj == 1 {
			hm += acc[j]
			nh++
		} else {
			sm += acc[j]
			ns++
		}
	}
	if hm/float64(nh) <= sm/float64(ns) {
		t.Fatal("EM accuracies do not separate hammers from spammers")
	}
}

func TestWeightedFusionMergesAndWeighs(t *testing.T) {
	reports := []VehicleReport{
		{Vehicle: 0, APs: []geo.Point{{X: 10, Y: 10}}},
		{Vehicle: 1, APs: []geo.Point{{X: 14, Y: 10}}},
		{Vehicle: 2, APs: []geo.Point{{X: 80, Y: 80}}},
	}
	rel := []float64{3, 1, 1}
	got, err := WeightedFusion(reports, rel, FusionOptions{MergeRadius: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("fused clusters = %d, want 2", len(got))
	}
	// Weighted centroid: (10·3 + 14·1)/4 = 11.
	if math.Abs(got[0].X-11) > 1e-9 || got[0].Y != 10 {
		t.Fatalf("fused point = %v, want (11,10)", got[0])
	}
}

func TestWeightedFusionFilters(t *testing.T) {
	reports := []VehicleReport{
		{Vehicle: 0, APs: []geo.Point{{X: 10, Y: 10}}},
		{Vehicle: 1, APs: []geo.Point{{X: 12, Y: 10}}},
		{Vehicle: 2, APs: []geo.Point{{X: 90, Y: 90}}},
	}
	rel := []float64{1, 1, 1}
	got, err := WeightedFusion(reports, rel, FusionOptions{MergeRadius: 10, MinReports: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fused = %v, want only the 2-vehicle cluster", got)
	}
	if _, err := WeightedFusion(reports, rel, FusionOptions{}); err == nil {
		t.Fatal("expected merge radius error")
	}
}

func TestWeightedFusionZeroWeightVehicleIgnored(t *testing.T) {
	reports := []VehicleReport{
		{Vehicle: 0, APs: []geo.Point{{X: 10, Y: 10}}},
		{Vehicle: 1, APs: []geo.Point{{X: 20, Y: 10}}}, // spammer, weight 0
	}
	rel := []float64{1, 0}
	got, err := WeightedFusion(reports, rel, FusionOptions{MergeRadius: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (geo.Point{X: 10, Y: 10}) {
		t.Fatalf("fusion = %v, want [(10,10)]", got)
	}
}

func TestNormalizeReliability(t *testing.T) {
	out := NormalizeReliability([]float64{-2, 0, 6})
	if out[0] != 0.05 || out[2] != 1 {
		t.Fatalf("normalize = %v", out)
	}
	if out[1] <= out[0] || out[1] >= out[2] {
		t.Fatalf("middle value not between: %v", out)
	}
	flat := NormalizeReliability([]float64{3, 3})
	if flat[0] != 1 || flat[1] != 1 {
		t.Fatalf("flat normalize = %v", flat)
	}
	if NormalizeReliability(nil) != nil {
		t.Fatal("nil input should yield nil")
	}
}

func TestErrorDecaysWithWorkersPerTask(t *testing.T) {
	// Fig. 7(a) shape: more workers per task → lower bit error.
	errAt := func(l int) float64 {
		var tot float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			labels, truth, _ := spammerScenario(t, uint64(1000+trial*13+l), 200, l, 10, 0.6)
			res := Infer(labels, InferenceOptions{})
			tot += eval.BitErrorRate(truth, res.Labels)
		}
		return tot / trials
	}
	e5, e25 := errAt(5), errAt(25)
	if e25 >= e5 {
		t.Fatalf("error did not decay with ℓ: ℓ=5 → %.4f, ℓ=25 → %.4f", e5, e25)
	}
}
