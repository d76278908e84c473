package main

import (
	"math"
	"sort"

	"crowdwifi/internal/eval"
)

// percentileLadder is the set of percentiles a timing may be reported at,
// each with the share of samples beyond it as one in so many.
var percentileLadder = []struct {
	p     float64
	oneIn int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest ladder percentile that still has at least
// ten samples beyond it, so the reported tail is never one or two outliers.
// ok is false below 20 samples, where not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range percentileLadder {
		if n/q.oneIn < 10 {
			break
		}
		p, ok = q.p, true
	}
	return p, ok
}

// percentile reads the p-th percentile (0..100) from ascending xs by the
// nearest-rank rule, so the value is always one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule the
// benchmark contract measures run-to-run spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(eval.Median(xs))
}

// timing is how every latency is reported: a median, plus the highest
// percentile the sample supports, with the sample count.
type timing struct {
	N      int       `json:"n"`
	P50    float64   `json:"p50"`
	TailP  float64   `json:"tail_percentile"`
	Tail   float64   `json:"tail"`
	Unit   string    `json:"unit"`
	Sorted []float64 `json:"-"`
}

func summarize(xs []float64, unit string) timing {
	s := sortedCopy(xs)
	t := timing{N: len(s), P50: percentile(s, 50), Unit: unit, Sorted: s}
	if p, ok := tailPercentile(len(s)); ok {
		t.TailP, t.Tail = p, percentile(s, p)
	} else {
		t.TailP, t.Tail = 50, t.P50
	}
	return t
}
