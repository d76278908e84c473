package cs

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"crowdwifi/internal/mat"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/rng"
)

// Orthogonalize builds Proposition 1's operator from the group's Gram matrix
// AAᵀ rather than from a thin SVD of A. The two agree up to an orthogonal
// change of basis of Q's rows, which nothing downstream can see: the kept
// rank, the row-space projector QᵀQ, the back-projection Qᵀy′ and the
// recovered θ. The SVD construction lives on here as the reference.

// orthogonalizeSVDRef is Orthogonalize as it was: the thin SVD A = UΣVᵀ by
// one-sided Jacobi, Q = the kept rows of Vᵀ and y′ = Σ⁻¹Uᵀy, keeping the
// components with σₖ > rankTol·σ₁.
func orthogonalizeSVDRef(a *mat.Mat, y []float64, rankTol float64) (*mat.Mat, []float64, error) {
	_, n := a.Dims()
	if rankTol <= 0 {
		rankTol = DefaultRankTol
	}
	svd := mat.FactorizeSVD(a)
	r := 0
	if svd.S[0] > 0 {
		for _, s := range svd.S {
			if s > rankTol*svd.S[0] {
				r++
			}
		}
	}
	if r == 0 {
		return nil, nil, errors.New("cs: sensing matrix has rank zero")
	}
	q := mat.New(r, n)
	for k := 0; k < r; k++ {
		qk := q.RawRow(k)
		for i := range qk {
			qk[i] = svd.V.RawRow(i)[k]
		}
	}
	uty := mat.MulTVec(svd.U, y)
	yp := make([]float64, r)
	for k := 0; k < r; k++ {
		yp[k] = uty[k] / svd.S[k]
	}
	return q, yp, nil
}

// orthCase is one sensing matrix and its measurements.
type orthCase struct {
	name string
	a    *mat.Mat
	y    []float64
}

// uciGroups returns real measurement groups: the windows of seeded UCI drives
// at the vehicle's configuration, partitioned into k groups as the first pass
// of EvaluateK partitions them, each capped at its maxGroupRows strongest
// readings, against the drive's whole grid.
func uciGroups(t *testing.T) []orthCase {
	var out []orthCase
	for seed := uint64(1); seed <= 3; seed++ {
		sc, g, ms := uciDrive(t, seed)
		for end := 60; end <= len(ms); end += 40 {
			window := ms[end-60 : end]
			seeds := StrongReadingSeeds(window, sc.Channel, 1.5*uciLattice)
			for k := 1; k <= 4; k++ {
				assign := seedAssignment(window, k, seeds)
				for j := 0; j < k; j++ {
					var group []radio.Measurement
					for i, a := range assign {
						if a == j {
							group = append(group, window[i])
						}
					}
					if len(group) == 0 {
						continue
					}
					group = strongest(group, maxGroupRows)
					y := make([]float64, len(group))
					for i, m := range group {
						y[i] = m.RSS
					}
					out = append(out, orthCase{"uci", BuildSensingMatrix(g, sc.Channel, group), y})
				}
			}
		}
	}
	return out
}

// strongest returns the n strongest readings of group, strongest first.
func strongest(group []radio.Measurement, n int) []radio.Measurement {
	out := append([]radio.Measurement(nil), group...)
	sort.Slice(out, func(i, j int) bool { return out[i].RSS > out[j].RSS })
	return out[:min(n, len(out))]
}

// randomWide returns Gaussian wide matrices, one of them with a repeated row
// (rank one short of its row count), and Gaussian measurements.
func randomWide() []orthCase {
	r := rng.New(46)
	fill := func(m, n int) ([]float64, []float64) {
		a := make([]float64, m*n)
		for i := range a {
			a[i] = r.Normal(0, 1)
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = r.Normal(0, 1)
		}
		return a, y
	}
	var out []orthCase
	for _, d := range [][2]int{{1, 7}, {3, 40}, {12, 60}, {24, 187}, {24, 187}} {
		a, y := fill(d[0], d[1])
		out = append(out, orthCase{"random", mat.NewFromData(d[0], d[1], a), y})
	}
	a, y := fill(10, 50)
	copy(a[9*50:], a[2*50:3*50])
	out = append(out, orthCase{"random repeated row", mat.NewFromData(10, 50, a), y})
	return out
}

// relDiff is ‖a − b‖₂ / ‖b‖₂ over two equal-length vectors.
func relDiff(a, b []float64) float64 {
	var d, s float64
	for i := range b {
		d += (a[i] - b[i]) * (a[i] - b[i])
		s += b[i] * b[i]
	}
	return math.Sqrt(d / s)
}

// projector returns QᵀQ's entries row-major.
func projector(q *mat.Mat) []float64 {
	r, n := q.Dims()
	p := make([]float64, n*n)
	for k := 0; k < r; k++ {
		qk := q.RawRow(k)
		for i, vi := range qk {
			row := p[i*n : (i+1)*n]
			for j, vj := range qk {
				row[j] += vi * vj
			}
		}
	}
	return p
}

// The stated tolerances. The kept σ are at least DefaultRankTol·σ₁, so
// squaring them into the Gram matrix costs at most four of sixteen digits:
// the projector and the back-projection agree to 1e-9 relative. θ is an
// ADMM iterate stopped at a relative tolerance of 1e-6, so a rounding-level
// difference in its input may end it an iteration apart: θ agrees to 1e-6.
const (
	orthProjectorTol = 1e-9
	orthBackProjTol  = 1e-9
	orthThetaTol     = 1e-6
)

func TestOrthogonalizeMatchesSVDReference(t *testing.T) {
	cases := append(uciGroups(t), randomWide()...)
	if len(cases) < 100 {
		t.Fatalf("only %d cases", len(cases))
	}
	var worstP, worstB, worstT float64
	for i, c := range cases {
		q, yp, err := Orthogonalize(c.a, c.y, 0)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.name, err)
		}
		qr, ypr, err := orthogonalizeSVDRef(c.a, c.y, 0)
		if err != nil {
			t.Fatalf("case %d (%s): reference: %v", i, c.name, err)
		}
		if q.Rows() != qr.Rows() {
			t.Fatalf("case %d (%s): rank %d, reference %d", i, c.name, q.Rows(), qr.Rows())
		}
		dP := relDiff(projector(q), projector(qr))
		if dP > orthProjectorTol {
			t.Errorf("case %d (%s): QᵀQ off the reference by %.3g relative", i, c.name, dP)
		}
		dB := relDiff(mat.MulTVec(q, yp), mat.MulTVec(qr, ypr))
		if dB > orthBackProjTol {
			t.Errorf("case %d (%s): Qᵀy′ off the reference by %.3g relative", i, c.name, dB)
		}

		theta, err := RecoverTheta(context.Background(), c.a, c.y, RecoveryOptions{})
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.name, err)
		}
		// The reference pipeline: the SVD operator, then what RecoverTheta
		// does after Orthogonalize.
		ref, err := RecoverTheta(context.Background(), qr, ypr, RecoveryOptions{SkipOrthogonalize: true})
		if err != nil {
			t.Fatalf("case %d (%s): reference: %v", i, c.name, err)
		}
		dT := relDiff(theta, ref)
		if dT > orthThetaTol {
			t.Errorf("case %d (%s): θ off the reference by %.3g relative", i, c.name, dT)
		}
		worstP, worstB, worstT = max(worstP, dP), max(worstB, dB), max(worstT, dT)
	}
	t.Logf("%d cases; worst relative difference: QᵀQ %.2g, Qᵀy′ %.2g, θ %.2g", len(cases), worstP, worstB, worstT)
}
