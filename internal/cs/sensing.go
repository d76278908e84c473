// Package cs implements CrowdWiFi's online compressive sensing component
// (Section 4): sensing matrix construction over the driving grid, the
// orthogonalization of Proposition 1, ℓ1-based recovery of AP indicator
// vectors, (AP,RSS) combination search with BIC model selection
// (Sections 4.3.3–4.3.5), and the sliding-window engine with credit-based
// consolidation (Sections 4.3.2 and 4.3.6).
package cs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"crowdwifi/internal/grid"
	"crowdwifi/internal/mat"
	"crowdwifi/internal/radio"
	"crowdwifi/internal/solve"
)

// RecoveryOptions is what varies about one grid recovery; the zero value is
// the paper's pipeline. The program itself is fixed (see RecoverTheta).
type RecoveryOptions struct {
	// SkipOrthogonalize solves on the raw path-loss sensing matrix instead of
	// applying Proposition 1 first. It exists to ablate the paper's own
	// proposition (BenchmarkAblationOrthogonalization): the raw matrix is
	// highly coherent and recovers worse.
	SkipOrthogonalize bool
	// Metrics, when non-nil, records solver run outcomes, iteration counts,
	// and residual norms.
	Metrics *solve.Metrics
}

// The ℓ1 program every recovery runs: non-negative ADMM basis pursuit
// denoising with λ a fixed share of ‖Aᵀy‖∞ — the smallest λ whose solution is
// all zeros — stopped at admmTol or admmMaxIter. EXPERIMENTS.md records the
// solver ablation that chose it.
const (
	lambdaShare = 0.1
	lambdaFloor = 1e-6
	admmMaxIter = 400
	admmTol     = 1e-6
)

// ErrNoMeasurements is returned when recovery is attempted with no data.
var ErrNoMeasurements = errors.New("cs: no measurements")

// BuildSensingMatrix assembles A = ΦΨ directly: A[i][j] is the mean RSS a
// collector at reference point i would receive from an AP at grid point j
// under the channel model. Building A row-by-row from the true RP positions
// subsumes the paper's Φ-selection of snapped grid rows (snapping the RP to
// its nearest grid point is recovered by passing snapped positions).
func BuildSensingMatrix(g *grid.Grid, ch radio.Channel, rps []radio.Measurement) *mat.Mat {
	n := g.N()
	a := mat.New(len(rps), n)
	for i, m := range rps {
		row := a.RawRow(i)
		for j := 0; j < n; j++ {
			row[j] = ch.MeanRSS(m.Pos.Dist(g.Point(j)))
		}
	}
	if t := tally; t != nil {
		t.entries.Add(int64(len(rps) * n))
	}
	return a
}

// BuildPsi assembles the full N×N sparsity basis Ψ of Section 4.2.2, with
// [Ψ]ᵢⱼ the RSS on grid point i from an AP at grid point j. It exists for
// completeness and tests; the pipeline builds ΦΨ directly.
func BuildPsi(g *grid.Grid, ch radio.Channel) *mat.Mat {
	n := g.N()
	psi := mat.New(n, n)
	for i := 0; i < n; i++ {
		pi := g.Point(i)
		row := psi.RawRow(i)
		for j := 0; j < n; j++ {
			row[j] = ch.MeanRSS(pi.Dist(g.Point(j)))
		}
	}
	return psi
}

// BuildPhi assembles the M×N measurement matrix Φ of Section 4.2.2: each row
// selects the grid point nearest the corresponding reference point. It
// exists for completeness and tests.
func BuildPhi(g *grid.Grid, rps []radio.Measurement) *mat.Mat {
	phi := mat.New(len(rps), g.N())
	for i, m := range rps {
		phi.Set(i, g.Nearest(m.Pos), 1)
	}
	return phi
}

// DefaultRankTol is the relative singular-value cutoff used by
// Orthogonalize. The transform y' = Σ⁻¹Uᵀy amplifies measurement noise along
// directions with small singular values, so components below
// DefaultRankTol·σ₁ are truncated; this is the numerically robust reading of
// Proposition 1's orth/pseudo-inverse construction.
const DefaultRankTol = 1e-2

// Orthogonalize applies Proposition 1. Given A = ΦΨ (M×N) and measurements
// y, it returns Q = orth(Aᵀ)ᵀ (r×N, orthonormal rows, r = effective rank of
// A) and y' = T·y with T = Q·A†, such that θ can be recovered from Qθ ≈ y'.
//
// Using the thin SVD A = UΣVᵀ: orth(Aᵀ) = V, so Q = Vᵀ, A† = VΣ⁻¹Uᵀ, and
// T = Σ⁻¹Uᵀ. A group has far fewer readings than grid points, so U and Σ come
// from the M×M Gram matrix AAᵀ = UΣ²Uᵀ and Q = Σ⁻¹UᵀA, the same Vᵀ without
// factoring A. The squaring costs the kept σ ≥ rankTol·σ₁ at most
// 2·log₁₀(1/rankTol) digits, so a cutoff far below DefaultRankTol would
// keep components that are rounding noise. Pass rankTol ≤ 0 for
// DefaultRankTol.
func Orthogonalize(a *mat.Mat, y []float64, rankTol float64) (*mat.Mat, []float64, error) {
	m, n := a.Dims()
	if len(y) != m {
		return nil, nil, fmt.Errorf("cs: y length %d does not match %d rows", len(y), m)
	}
	if rankTol <= 0 {
		rankTol = DefaultRankTol
	}
	eig, err := mat.FactorizeSymEigen(mat.AAt(a))
	if err != nil {
		return nil, nil, err
	}
	// λₖ = σₖ², descending: keep σₖ > rankTol·σ₁.
	lam := eig.Values
	r := 0
	for r < m && lam[r] > 0 && lam[r] > rankTol*rankTol*lam[0] {
		r++
	}
	if r == 0 {
		return nil, nil, errors.New("cs: sensing matrix has rank zero")
	}
	// Row k of Q and entry k of y' are uₖᵀA/σₖ and uₖᵀy/σₖ.
	q := mat.New(r, n)
	yp := make([]float64, r)
	for k := 0; k < r; k++ {
		inv := 1 / math.Sqrt(lam[k])
		qk := q.RawRow(k)
		for i := 0; i < m; i++ {
			c := eig.Vectors.At(i, k) * inv
			yp[k] += c * y[i]
			for j, v := range a.RawRow(i) {
				qk[j] += c * v
			}
		}
	}
	return q, yp, nil
}

// RecoverTheta solves the ℓ1 recovery program for one AP group: given the
// sensing matrix A over the grid and the RSS measurements y, it returns the
// sparse, non-negative coefficient vector θ over grid points. The pipeline is
// fixed: Proposition 1's orthogonalization, unit-norm columns, then ADMM-BPDN
// with θ ≥ 0 (the AP indicators are 0/1). The context is checked before the
// solve starts and polled inside the ADMM loop, so a per-round deadline
// interrupts even a large-window ℓ1 program promptly.
func RecoverTheta(ctx context.Context, a *mat.Mat, y []float64, opts RecoveryOptions) ([]float64, error) {
	m, _ := a.Dims()
	if m == 0 || len(y) == 0 {
		return nil, ErrNoMeasurements
	}
	if len(y) != m {
		return nil, fmt.Errorf("cs: y length %d does not match %d rows", len(y), m)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cs: recovery canceled: %w", err)
	}

	// The matrix Orthogonalize builds is ours to scale in place; the caller's
	// is not.
	var aw *mat.Mat
	yw := y
	if opts.SkipOrthogonalize {
		aw = a.Clone()
	} else {
		var err error
		aw, yw, err = Orthogonalize(a, y, 0)
		if err != nil {
			return nil, err
		}
	}

	// Rescale columns to unit norm so the ℓ1 penalty treats every grid point
	// equally, and fold the scaling back into θ afterwards. Without it ℓ1
	// favours large-norm columns — grid points close to the drive line — and
	// drags AP estimates onto the road.
	colNorm := normalizeColumns(aw)

	lambda := lambdaShare * mat.NormInf(mat.MulTVec(aw, yw))
	if lambda <= 0 {
		lambda = lambdaFloor
	}
	res, err := solve.BPDN(aw, yw, lambda, solve.Options{
		MaxIter: admmMaxIter, Tol: admmTol, NonNegative: true, Ctx: ctx, Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if t := tally; t != nil {
		t.passes.Add(int64(res.Passes))
	}
	theta := res.X
	for j := range theta {
		if colNorm[j] > 0 {
			theta[j] /= colNorm[j]
		}
	}
	return theta, nil
}

// normalizeColumns scales every non-zero column of a to unit Euclidean norm
// in place and returns the norms it divided by.
func normalizeColumns(a *mat.Mat) []float64 {
	rows, cols := a.Dims()
	norms := make([]float64, cols)
	for i := 0; i < rows; i++ {
		for j, v := range a.RawRow(i) {
			norms[j] += v * v
		}
	}
	for j, s := range norms {
		norms[j] = math.Sqrt(s)
	}
	for i := 0; i < rows; i++ {
		row := a.RawRow(i)
		for j, nrm := range norms {
			if nrm == 0 {
				row[j] = 0 // the column is all ±0; leave +0 behind
			} else {
				row[j] /= nrm
			}
		}
	}
	return norms
}
