package solve_test

import (
	"math"
	"sort"
	"testing"

	"crowdwifi/internal/cs"
	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
	"crowdwifi/internal/sim"
	"crowdwifi/internal/solve"
)

var resultSink *solve.Result

// BenchmarkBPDN24x176 is the ℓ1 program as the vehicle poses it: the 24
// strongest readings of a full UCI window against the 176-point grid of 20 m
// cells, orthogonalized (Proposition 1) and column-normalized the way
// cs.RecoverTheta does before it solves, at its λ and its solver options.
func BenchmarkBPDN24x176(b *testing.B) {
	sc := sim.UCI()
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.FromRect(sc.Area, 20)
	if err != nil {
		b.Fatal(err)
	}
	group := append([]radio.Measurement(nil), ms[60:120]...)
	sort.Slice(group, func(i, j int) bool { return group[i].RSS > group[j].RSS })
	group = group[:24]
	y := make([]float64, len(group))
	for i, m := range group {
		y[i] = m.RSS
	}
	q, yq, err := cs.Orthogonalize(cs.BuildSensingMatrix(g, sc.Channel, group), y, 0)
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := q.Dims()
	for j := 0; j < cols; j++ {
		var norm float64
		for i := 0; i < rows; i++ {
			norm += q.At(i, j) * q.At(i, j)
		}
		if norm = math.Sqrt(norm); norm > 0 {
			for i := 0; i < rows; i++ {
				q.Set(i, j, q.At(i, j)/norm)
			}
		}
	}
	lambda := 0.1 * mat.NormInf(mat.MulTVec(q, yq))
	opts := solve.Options{MaxIter: 400, Tol: 1e-6, NonNegative: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solve.BPDN(q, yq, lambda, opts)
		if err != nil {
			b.Fatal(err)
		}
		resultSink = res
	}
	b.ReportMetric(float64(resultSink.Iterations), "iterations")
}
