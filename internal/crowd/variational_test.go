package crowd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"crowdwifi/internal/eval"
)

func TestVariationalRecoversLabels(t *testing.T) {
	var vbTotal, mvTotal float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		labels, truth, _ := spammerScenario(t, uint64(700+trial), 300, 5, 15, 0.5)
		got, _ := Variational(labels)
		vbTotal += eval.BitErrorRate(truth, got)
		mvTotal += eval.BitErrorRate(truth, MajorityVote(labels))
	}
	vb, mv := vbTotal/trials, mvTotal/trials
	if vb >= mv {
		t.Fatalf("variational error %.4f not below MV %.4f", vb, mv)
	}
}

func TestVariationalReliabilitySeparates(t *testing.T) {
	labels, _, q := spammerScenario(t, 31, 500, 5, 25, 0.5)
	_, rel := Variational(labels)
	var hm, sm float64
	var nh, ns int
	for j, qj := range q {
		if qj == 1 {
			hm += rel[j]
			nh++
		} else {
			sm += rel[j]
			ns++
		}
	}
	hm /= float64(nh)
	sm /= float64(ns)
	if hm <= sm {
		t.Fatalf("hammer posterior %.3f not above spammer %.3f", hm, sm)
	}
	// Posterior means live in (0,1).
	for j, r := range rel {
		if r <= 0 || r >= 1 {
			t.Fatalf("worker %d posterior mean %v out of (0,1)", j, r)
		}
	}
}

func TestVariationalComparableToKOS(t *testing.T) {
	// Both estimators should land in the same error regime; neither should
	// be an order of magnitude worse than the other.
	var vbTotal, kosTotal float64
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		labels, truth, _ := spammerScenario(t, uint64(800+trial), 300, 15, 15, 0.5)
		got, _ := Variational(labels)
		vbTotal += eval.BitErrorRate(truth, got)
		kosTotal += eval.BitErrorRate(truth, Infer(labels, InferenceOptions{}).Labels)
	}
	vb, kos := vbTotal/trials, kosTotal/trials
	if vb > 10*kos+0.01 {
		t.Fatalf("variational %.4f much worse than KOS %.4f", vb, kos)
	}
}

func TestVariationalEmptyTask(t *testing.T) {
	a := &Assignment{
		NumTasks:    2,
		NumWorkers:  1,
		TaskWorkers: [][]int{{0}, {}},
	}
	labels := &Labels{Assignment: a, Values: [][]int8{{1}, {}}}
	got, rel := Variational(labels)
	if len(got) != 2 || len(rel) != 1 {
		t.Fatalf("got %v rel %v", got, rel)
	}
	if got[1] != 1 {
		t.Fatalf("empty task label %d, want +1 tie-break", got[1])
	}
}

func TestDigamma(t *testing.T) {
	// ψ(1) = −γ (Euler–Mascheroni), ψ(x+1) = ψ(x) + 1/x.
	const gamma = 0.5772156649015329
	if got := digamma(1); math.Abs(got+gamma) > 1e-7 {
		t.Fatalf("ψ(1) = %v, want %v", got, -gamma)
	}
	for _, x := range []float64{0.5, 1.3, 2.7, 10} {
		lhs := digamma(x + 1)
		rhs := digamma(x) + 1/x
		if math.Abs(lhs-rhs) > 1e-7 {
			t.Fatalf("recurrence fails at %v: %v vs %v", x, lhs, rhs)
		}
	}
	if !math.IsInf(digamma(0), -1) {
		t.Fatal("ψ(0) should be -Inf")
	}
}

// estimatorDigest is the SHA-256 of Variational's labels and reliabilities
// and SpearmanAggregate's labels and weights, bit for bit, on three seeded
// spammer-hammer graphs (amd64).
const estimatorDigest = "e90418eccfd5215123244f3fc276eed394ac2a3a51866e7153a401f0ca258671"

func TestEstimatorDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was recorded on amd64; this is %s", runtime.GOARCH)
	}
	h := sha256.New()
	var buf [8]byte
	write := func(labels []int, weights []float64) {
		for _, v := range labels {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
		for _, v := range weights {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		labels, _, _ := spammerScenario(t, 900+seed, 300, 5, 15, 0.5)
		write(Variational(labels))
		write(SpearmanAggregate(labels, 3))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != estimatorDigest {
		t.Fatalf("digest %s, want %s: the estimators' answers moved", got, estimatorDigest)
	}
}

// TestEstimatorsIgnoreWorkerTasks runs each estimator on a graph whose
// WorkerTasks lists every worker's tasks in ascending order, and on a copy
// with WorkerTasks nil, the shape Store.inferReliability builds. The answers
// must be the same bits.
func TestEstimatorsIgnoreWorkerTasks(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		full, _, _ := spammerScenario(t, 950+seed, 300, 5, 15, 0.5)
		a := full.Assignment
		a.WorkerTasks = make([][]int, a.NumWorkers)
		for i, workers := range a.TaskWorkers {
			for _, j := range workers {
				a.WorkerTasks[j] = append(a.WorkerTasks[j], i)
			}
		}
		bare := *a
		bare.WorkerTasks = nil
		served := &Labels{Assignment: &bare, Values: full.Values}

		for _, est := range []struct {
			name string
			run  func(*Labels) ([]int, []float64)
		}{
			{"variational", Variational},
			{"spearman", func(l *Labels) ([]int, []float64) { return SpearmanAggregate(l, 3) }},
			{"em", func(l *Labels) ([]int, []float64) { return emDawidSkene(l, 20) }},
		} {
			wantLabels, wantWeights := est.run(full)
			gotLabels, gotWeights := est.run(served)
			if !slices.Equal(gotLabels, wantLabels) {
				t.Fatalf("seed %d, %s: labels differ without WorkerTasks", seed, est.name)
			}
			for j := range wantWeights {
				if math.Float64bits(gotWeights[j]) != math.Float64bits(wantWeights[j]) {
					t.Fatalf("seed %d, %s: worker %d weighs %v without WorkerTasks, %v with",
						seed, est.name, j, gotWeights[j], wantWeights[j])
				}
			}
		}
	}
}
