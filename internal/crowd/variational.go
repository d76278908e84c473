package crowd

import "math"

// Variational's coordinate ascent stops after variationalRounds rounds, or
// once the mean task-posterior change falls below variationalTol. Worker
// reliability has a Beta(priorAlpha, priorBeta) prior: E[q] = 2/3 > 1/2,
// the paper's requirement that spammers not overwhelm the prior.
const (
	variationalRounds = 50
	variationalTol    = 1e-6
	priorAlpha        = 2.0
	priorBeta         = 1.0
)

// Variational runs mean-field variational inference for the one-coin worker
// model with a Beta(α, β) reliability prior — the variational approach of
// the paper's reference [10] (Liu, Peng, Ihler, NIPS 2012) specialized to
// binary tasks. The variational posterior factorizes as
// q(z, w) = Πᵢ q(zᵢ) Πⱼ q(wⱼ) with Beta worker factors; coordinate ascent
// alternates between task posteriors (weighted votes with weights
// E[log w] − E[log(1−w)]) and worker pseudo-counts (expected correct and
// incorrect answer counts). Both halves walk the graph task-major, so
// Assignment.WorkerTasks is not read.
//
// It returns the MAP labels and the posterior mean reliability per worker.
func Variational(l *Labels) ([]int, []float64) {
	a := l.Assignment

	// Task posteriors P(zᵢ = +1), initialized from vote shares.
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
	// Worker Beta pseudo-counts, and each worker's vote weight
	// E[log w] − E[log(1−w)] = ψ(α) − ψ(β).
	alpha := make([]float64, a.NumWorkers)
	beta := make([]float64, a.NumWorkers)
	weight := make([]float64, a.NumWorkers)

	for it := 0; it < variationalRounds; it++ {
		// Worker update: expected correct/incorrect counts under q(z),
		// summed over each worker's tasks in ascending order.
		for j := range alpha {
			alpha[j], beta[j] = priorAlpha, priorBeta
		}
		for i, workers := range a.TaskWorkers {
			for c, j := range workers {
				pAgree := post[i]
				if l.Values[i][c] < 0 {
					pAgree = 1 - post[i]
				}
				alpha[j] += pAgree
				beta[j] += 1 - pAgree
			}
		}
		for j := range weight {
			weight[j] = digamma(alpha[j]) - digamma(beta[j])
		}
		// Task update: log-odds of the weighted votes.
		var delta float64
		for i, workers := range a.TaskWorkers {
			var llr float64
			for c, j := range workers {
				llr += float64(l.Values[i][c]) * weight[j]
			}
			np := 1 / (1 + math.Exp(-llr))
			delta += math.Abs(np - post[i])
			post[i] = np
		}
		if delta/float64(a.NumTasks+1) < variationalTol {
			break
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
	rel := make([]float64, a.NumWorkers)
	for j := range rel {
		rel[j] = alpha[j] / (alpha[j] + beta[j])
	}
	return labels, rel
}

// digamma approximates ψ(x) for x > 0 via the asymptotic series after
// shifting the argument above 6.
func digamma(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	var result float64
	for x < 6 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ(x) ≈ ln x − 1/(2x) − 1/(12x²) + 1/(120x⁴) − 1/(252x⁶).
	result += math.Log(x) - 0.5*inv - inv2*(1.0/12-inv2*(1.0/120-inv2/252))
	return result
}
