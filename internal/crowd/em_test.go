package crowd

import "math"

// emDawidSkene runs the binary Dawid-Skene EM algorithm: alternate between
// posterior task labels given worker accuracies and accuracy re-estimation.
// It returns the MAP labels and the estimated per-worker accuracies. It is
// the probabilistic-model comparator referenced in Section 2 ([14]), kept
// for the tests and BenchmarkExtensionAggregators; like Variational it walks
// the graph task-major.
func emDawidSkene(l *Labels, iters int) ([]int, []float64) {
	if iters <= 0 {
		iters = 20
	}
	a := l.Assignment
	// Posterior probability that task i is +1, initialized from vote shares.
	post := make([]float64, a.NumTasks)
	for i, vals := range l.Values {
		pos := 0
		for _, v := range vals {
			if v > 0 {
				pos++
			}
		}
		if len(vals) > 0 {
			post[i] = float64(pos) / float64(len(vals))
		} else {
			post[i] = 0.5
		}
	}
	acc := make([]float64, a.NumWorkers)
	num := make([]float64, a.NumWorkers)
	den := make([]float64, a.NumWorkers)
	logOdds := make([]float64, a.NumWorkers)
	for it := 0; it < iters; it++ {
		// M-step: accuracy = expected fraction of agreements, smoothed.
		for j := range num {
			num[j], den[j] = 1, 2 // Laplace smoothing
		}
		for i, workers := range a.TaskWorkers {
			for c, j := range workers {
				if l.Values[i][c] > 0 {
					num[j] += post[i]
				} else {
					num[j] += 1 - post[i]
				}
				den[j]++
			}
		}
		for j := range acc {
			acc[j] = math.Min(math.Max(num[j]/den[j], 1e-3), 1-1e-3)
			logOdds[j] = math.Log(acc[j] / (1 - acc[j]))
		}
		// E-step: posterior from log-likelihood ratios.
		for i, workers := range a.TaskWorkers {
			var llr float64
			for c, j := range workers {
				llr += float64(l.Values[i][c]) * logOdds[j]
			}
			post[i] = 1 / (1 + math.Exp(-llr))
		}
	}
	labels := make([]int, a.NumTasks)
	for i, p := range post {
		if p >= 0.5 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	return labels, acc
}
