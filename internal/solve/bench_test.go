package solve_test

import (
	"fmt"
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
// strongest readings of a full UCI window over the 187-point grid of 20 m
// cells, orthogonalized (Proposition 1), which leaves BPDN a 4×187 matrix,
// and column-normalized the way cs.RecoverTheta does before it solves, at its
// λ and its solver options. The name keeps the group's readings and the
// grid size it was first written for.
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
	q, yq, lambda, err := groupProblem(sc, g, ms[60:120])
	if err != nil {
		b.Fatal(err)
	}
	benchmarkBPDN(b, q, yq, lambda)
}

// BenchmarkBPDNLattice8 is BenchmarkBPDN24x176's group over the paper's 8 m
// lattice (Fig. 5): the same 24 readings, 936 grid points instead of 187.
func BenchmarkBPDNLattice8(b *testing.B) {
	sc := sim.UCI()
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.FromRect(sc.Area, 8)
	if err != nil {
		b.Fatal(err)
	}
	q, yq, lambda, err := groupProblem(sc, g, ms[60:120])
	if err != nil {
		b.Fatal(err)
	}
	benchmarkBPDN(b, q, yq, lambda)
}

// BenchmarkBPDNRunUp solves the groups a drive's run-up poses: for each
// r = 1, 2, 3, the shortest window from the start of a UCI drive whose
// strongest readings leave r rows after Proposition 1.
func BenchmarkBPDNRunUp(b *testing.B) {
	sc := sim.UCI()
	ms, err := sc.Drive(sim.DriveConfig{Trajectory: sim.UCIDrive(), NumSamples: 180, SNR: 30}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := grid.FromRect(sc.Area, 20)
	if err != nil {
		b.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		w := 1
		for ; w <= 60; w++ {
			q, yq, lambda, err := groupProblem(sc, g, ms[:w])
			if err != nil {
				b.Fatal(err)
			}
			if q.Rows() != r {
				continue
			}
			b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) { benchmarkBPDN(b, q, yq, lambda) })
			break
		}
		if w > 60 {
			b.Fatalf("no run-up window leaves %d rows", r)
		}
	}
}

// groupProblem is the program cs.RecoverTheta solves for one group of a
// window: its 24 strongest readings, orthogonalized, columns scaled to unit
// norm, and λ a tenth of ‖Qᵀy′‖∞.
func groupProblem(sc sim.Scenario, g *grid.Grid, window []radio.Measurement) (*mat.Mat, []float64, float64, error) {
	group := append([]radio.Measurement(nil), window...)
	sort.Slice(group, func(i, j int) bool { return group[i].RSS > group[j].RSS })
	group = group[:min(len(group), 24)]
	y := make([]float64, len(group))
	for i, m := range group {
		y[i] = m.RSS
	}
	q, yq, err := cs.Orthogonalize(cs.BuildSensingMatrix(g, sc.Channel, group), y, 0)
	if err != nil {
		return nil, nil, 0, err
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
	return q, yq, 0.1 * mat.NormInf(mat.MulTVec(q, yq)), nil
}

func benchmarkBPDN(b *testing.B, q *mat.Mat, yq []float64, lambda float64) {
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
	b.ReportMetric(float64(resultSink.Passes), "passes")
	b.ReportMetric(float64(q.Rows()), "rows")
}
