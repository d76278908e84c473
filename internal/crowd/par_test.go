package crowd

import (
	"runtime"
	"testing"

	"crowdwifi/internal/rng"
)

// TestInferParallelBitIdentical is the determinism property test for the
// parallel message-passing sweeps: a large seeded instance (above the edge
// cutoff) must produce bit-identical scores, reliabilities, and iteration
// counts at any worker count.
func TestInferParallelBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		a, err := RegularAssignment(300, 9, 27, r)
		if err != nil {
			t.Fatal(err)
		}
		truth := RandomLabelsTruth(300, r)
		q := SpammerHammer(a.NumWorkers, 0.3, r)
		labels, err := GenerateLabels(a, truth, q, r)
		if err != nil {
			t.Fatal(err)
		}

		// GOMAXPROCS is the one parallelism setting (no test in the
		// repository runs in parallel with another).
		prev := runtime.GOMAXPROCS(1)
		serial := Infer(labels, InferenceOptions{})
		runtime.GOMAXPROCS(4)
		parallel := Infer(labels, InferenceOptions{})
		runtime.GOMAXPROCS(prev)

		if serial.Iterations != parallel.Iterations || serial.Converged != parallel.Converged {
			t.Fatalf("seed %d: iterations/converged (%d,%v) != (%d,%v)",
				seed, serial.Iterations, serial.Converged, parallel.Iterations, parallel.Converged)
		}
		for i := range serial.TaskScores {
			if serial.TaskScores[i] != parallel.TaskScores[i] {
				t.Fatalf("seed %d: task %d score %v != %v",
					seed, i, serial.TaskScores[i], parallel.TaskScores[i])
			}
			if serial.Labels[i] != parallel.Labels[i] {
				t.Fatalf("seed %d: task %d label %d != %d",
					seed, i, serial.Labels[i], parallel.Labels[i])
			}
		}
		for j := range serial.WorkerReliability {
			if serial.WorkerReliability[j] != parallel.WorkerReliability[j] {
				t.Fatalf("seed %d: worker %d reliability %v != %v",
					seed, j, serial.WorkerReliability[j], parallel.WorkerReliability[j])
			}
		}
	}
}
