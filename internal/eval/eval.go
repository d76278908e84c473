// Package eval implements the paper's evaluation metrics (Section 6): the
// normalized localization error and counting error for AP lookup, the
// bit-wise error rate for crowdsourcing, plus the optimal assignment
// (Hungarian algorithm) used to pair estimated APs with true APs, and small
// summary-statistics helpers shared by the benchmark harness.
package eval

import (
	"errors"
	"math"
	"sort"

	"crowdwifi/internal/geo"
)

// Hungarian solves the assignment problem for an n×m cost matrix given as
// rows of equal length: it returns assign[i] = column matched to row i (−1
// if row i is unmatched, which happens when n > m) minimizing total cost.
// It implements the O(n²m) Jonker-Volgenant-style shortest augmenting path
// variant of the Kuhn-Munkres algorithm.
func Hungarian(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for _, row := range cost {
		if len(row) != m {
			return nil, 0, errors.New("eval: ragged cost matrix")
		}
	}
	// Pad to a square problem: rows ≤ columns required by the sweep below.
	transposed := false
	if n > m {
		t := make([][]float64, m)
		for j := 0; j < m; j++ {
			t[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				t[j][i] = cost[i][j]
			}
		}
		cost, n, m = t, m, n
		transposed = true
	}

	const inf = math.MaxFloat64
	// 1-indexed potentials and matching, standard formulation.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	rowAssign := make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowAssign[p[j]-1] = j - 1
		}
	}
	var total float64
	for i, j := range rowAssign {
		total += cost[i][j]
	}
	if transposed {
		// Invert the mapping back to the original (larger) row set.
		out := make([]int, m)
		for i := range out {
			out[i] = -1
		}
		for i, j := range rowAssign {
			out[j] = i
		}
		return out, total, nil
	}
	return rowAssign, total, nil
}

// MatchPoints pairs each of the first min(len(a), len(b)) points optimally
// (minimum total Euclidean distance) and returns the matched index pairs.
func MatchPoints(a, b []geo.Point) (pairs [][2]int, totalDist float64) {
	if len(a) == 0 || len(b) == 0 {
		return nil, 0
	}
	cost := make([][]float64, len(a))
	for i := range a {
		cost[i] = make([]float64, len(b))
		for j := range b {
			cost[i][j] = a[i].Dist(b[j])
		}
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		return nil, 0
	}
	for i, j := range assign {
		if j >= 0 {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs, total
}

// LocalizationError computes the paper's normalized localization error for
// one grid:
//
//	(Σᵢ‖(xᵢ,yᵢ) − (x̂ᵢ,ŷᵢ)‖) / (kmin·l)
//
// where the sum runs over the kmin = min(k, k̂) optimally-matched pairs and
// l is the lattice length. The result is a fraction (multiply by 100 for the
// paper's percentages); a value below 1 means estimates land within one
// lattice of the truth. An empty estimate set against a non-empty truth
// returns +Inf.
func LocalizationError(truth, estimates []geo.Point, lattice float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	if len(estimates) == 0 {
		return math.Inf(1)
	}
	pairs, total := MatchPoints(truth, estimates)
	kmin := len(pairs)
	if kmin == 0 {
		return math.Inf(1)
	}
	return total / (float64(kmin) * lattice)
}

// MeanMatchedDistance returns the average distance in metres between
// optimally matched truth/estimate pairs — the absolute error the paper
// quotes for Fig. 5 and the testbed (e.g. "2.2509 m").
func MeanMatchedDistance(truth, estimates []geo.Point) float64 {
	pairs, total := MatchPoints(truth, estimates)
	if len(pairs) == 0 {
		return math.Inf(1)
	}
	return total / float64(len(pairs))
}

// CountingError computes the paper's counting error Σ|k̂−k| / Σk across
// grids; pass single-element slices for one grid.
func CountingError(actual, estimated []int) float64 {
	if len(actual) != len(estimated) {
		panic("eval: counting error requires matched slices")
	}
	var num, den float64
	for i := range actual {
		num += math.Abs(float64(estimated[i] - actual[i]))
		den += float64(actual[i])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// BitErrorRate is the fraction of label mismatches between truth and
// estimate (the crowdsourcing metric of Section 5.2).
func BitErrorRate(truth, estimate []int) float64 {
	if len(truth) != len(estimate) {
		panic("eval: bit error rate requires matched slices")
	}
	if len(truth) == 0 {
		return 0
	}
	wrong := 0
	for i := range truth {
		if truth[i] != estimate[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(truth))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
