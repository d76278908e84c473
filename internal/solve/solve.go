// Package solve implements the one sparse recovery program CrowdWiFi runs,
// written from scratch on internal/mat:
//
//   - BPDN: min ½‖Ax − b‖₂² + λ‖x‖₁ (ADMM with the matrix inversion lemma,
//     so the one factorization is M×M even when N ≫ M). An iteration is a
//     matvec with A and one with Aᵀ, two M×M triangular solves, and one
//     pass over the N-vectors for everything else.
//
// The paper needs an ℓ1-minimization oracle behind Proposition 1 (Section
// 4.1), not a particular one, and every round uses this one. EXPERIMENTS.md
// records the ablation that chose it over accelerated proximal gradient,
// matching pursuit and reweighted least squares (ADMM 0.8 m, FISTA 0.9 m,
// OMP 4.2 m, IRLS 4.2 m); `git show f2b3e16:internal/solve/solve.go` has the
// alternatives. OMP is kept for one reader only: bench/trace.go prices
// solve.omp as a per-layer metric, and bench/ is closed to this change.
//
// The solvers are deterministic given their inputs.
package solve

import (
	"context"
	"errors"
	"fmt"
	"math"

	"crowdwifi/internal/mat"
)

// Result reports the outcome of a recovery program.
type Result struct {
	// X is the recovered coefficient vector.
	X []float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the stopping tolerance was met before the
	// iteration cap.
	Converged bool
	// Residual is ‖Ax − b‖₂ at the returned X.
	Residual float64
	// Objective is ‖x‖₁ at the returned X.
	Objective float64
}

// Options tunes BPDN. The zero value selects sensible defaults via fill().
type Options struct {
	// MaxIter caps the iteration count (default 500).
	MaxIter int
	// Tol is the convergence tolerance on primal/dual residuals or relative
	// change (default 1e-6).
	Tol float64
	// NonNegative additionally constrains x ≥ 0. The proximal step becomes
	// max(v − t, 0), the prox of t·‖·‖₁ + ι_{x≥0}. CrowdWiFi enables this for
	// AP recovery because the indicator coefficients Θ are 0/1.
	NonNegative bool
	// Ctx, when non-nil, is checked every ctxCheckEvery iterations; a
	// canceled context aborts the solve with a wrapped ctx.Err(). This is how
	// a per-round deadline interrupts the ℓ1 search mid-iteration.
	Ctx context.Context
	// Metrics, when non-nil, records run outcomes, iteration counts, and
	// residual norms.
	Metrics *Metrics
}

// rho is the ADMM penalty parameter.
const rho = 1

// ctxCheckEvery is how often (in iterations) BPDN polls Options.Ctx.
// Each iteration is at least one M×N matvec, so the poll adds no measurable
// cost while keeping cancellation latency to a handful of matvecs.
const ctxCheckEvery = 8

// checkCtx returns a wrapped context error when o.Ctx is canceled and the
// iteration count hits the polling stride.
func (o Options) checkCtx(it int) error {
	if o.Ctx == nil || it%ctxCheckEvery != 0 {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("solve: bpdn canceled at iteration %d: %w", it, err)
	}
	return nil
}

func (o Options) fill() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// ErrDimension is returned when A and b are incompatible.
var ErrDimension = errors.New("solve: A and b dimensions are incompatible")

// prox applies the ℓ1 proximal operator of t·‖·‖₁: the soft threshold
// sign(v)·max(|v|−t, 0), or max(v−t, 0) when restricted to the non-negative
// orthant.
func prox(v, t float64, nonNeg bool) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t && !nonNeg:
		return v + t
	default:
		return 0
	}
}

func finish(a *mat.Mat, b, x []float64, iters int, converged bool) *Result {
	r := mat.SubVec(mat.MulVec(a, x), b)
	return &Result{
		X:          x,
		Iterations: iters,
		Converged:  converged,
		Residual:   mat.Norm2(r),
		Objective:  mat.Norm1(x),
	}
}

// BPDN solves the LASSO form min ½‖Ax − b‖₂² + λ‖x‖₁ by ADMM. For wide A
// (N > M) the x-update uses the matrix inversion lemma so only an M×M system
// is factorized once:
//
//	(AᵀA + ρI)⁻¹ = (1/ρ)(I − Aᵀ(ρI + AAᵀ)⁻¹A).
//
// An iteration forms w = Aᵀ(ρI + AAᵀ)⁻¹A q (or, for tall A, the solve of the
// N×N system), then makes one pass over the N-vectors: xᵢ = (qᵢ − wᵢ)/ρ, zᵢ
// and uᵢ a step on, both residual sums, and the next iteration's qᵢ. Every
// vector is made once, before the loop, and owned by this call.
func BPDN(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if lambda <= 0 {
		return nil, errors.New("solve: BPDN requires lambda > 0")
	}
	o := opts.fill()

	// Factorize the small Gram system once.
	wide := n > m
	var g *mat.Mat
	if wide {
		g = mat.AAt(a) // M×M
	} else {
		g = mat.AtA(a) // N×N
	}
	for i := 0; i < min(m, n); i++ {
		g.Set(i, i, g.At(i, i)+rho)
	}
	chol, err := mat.FactorizeCholesky(g)
	if err != nil {
		return nil, err
	}

	atb := mat.MulTVec(a, b)[:n]
	t := make([]float64, m)
	w := make([]float64, n)
	z := make([]float64, n)
	u := make([]float64, n)
	q := make([]float64, n)
	for i := range q {
		q[i] = atb[i] + rho*(z[i]-u[i])
	}
	thresh := lambda / rho

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx(it); err != nil {
			return nil, err
		}
		if wide {
			mat.MulVecTo(t, a, q)
			chol.SolveVecTo(t, t)
			mat.MulTVecTo(w, a, t)
		} else {
			chol.SolveVecTo(w, q)
		}
		// The pass, written out once per branch: a branch inside it costs the
		// wide loop a few percent.
		var primal, dual float64
		w, u, q, atb := w[:len(z)], u[:len(z)], q[:len(z)], atb[:len(z)]
		if wide {
			for i, zOld := range z {
				// x = q/ρ − Aᵀ(ρI + AAᵀ)⁻¹A q / ρ.
				xi := (q[i] - w[i]) / rho
				zi := prox(xi+u[i], thresh, o.NonNegative)
				d := xi - zi
				ui := u[i] + d
				u[i] = ui
				primal += d * d
				dz := zi - zOld
				dual += dz * dz
				z[i] = zi
				q[i] = atb[i] + rho*(zi-ui)
			}
		} else {
			for i, zOld := range z {
				xi := w[i]
				zi := prox(xi+u[i], thresh, o.NonNegative)
				d := xi - zi
				ui := u[i] + d
				u[i] = ui
				primal += d * d
				dz := zi - zOld
				dual += dz * dz
				z[i] = zi
				q[i] = atb[i] + rho*(zi-ui)
			}
		}
		if math.Sqrt(primal) < o.Tol*math.Sqrt(float64(n)) &&
			rho*math.Sqrt(dual) < o.Tol*math.Sqrt(float64(n)) {
			return o.Metrics.record(finish(a, b, z, it, true)), nil
		}
	}
	return o.Metrics.record(finish(a, b, z, o.MaxIter, false)), nil
}

// OMP performs orthogonal matching pursuit: greedily add the column most
// correlated with the residual, re-fit by least squares on the active set,
// and stop after k atoms or when the residual drops below resTol.
func OMP(a *mat.Mat, b []float64, k int, resTol float64) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if k <= 0 || k > n {
		return nil, errors.New("solve: OMP requires 0 < k <= cols(A)")
	}
	residual := mat.CloneVec(b)
	active := make([]int, 0, k)
	inActive := make([]bool, n)
	x := make([]float64, n)

	for it := 0; it < k; it++ {
		if mat.Norm2(residual) <= resTol {
			break
		}
		// Most correlated inactive column.
		corr := mat.MulTVec(a, residual)
		best, bestVal := -1, 0.0
		for j, c := range corr {
			if inActive[j] {
				continue
			}
			if v := math.Abs(c); v > bestVal {
				best, bestVal = j, v
			}
		}
		if best < 0 || bestVal == 0 {
			break
		}
		active = append(active, best)
		inActive[best] = true

		// Least squares on the active sub-matrix.
		sub := mat.New(m, len(active))
		for i := 0; i < m; i++ {
			for jj, col := range active {
				sub.Set(i, jj, a.At(i, col))
			}
		}
		qr, err := mat.FactorizeQR(sub)
		if err != nil {
			return nil, err
		}
		coef, err := qr.SolveLeastSquares(b)
		if err != nil {
			// Degenerate active set (duplicate columns); drop the atom and stop.
			active = active[:len(active)-1]
			break
		}
		for i := range x {
			x[i] = 0
		}
		for jj, col := range active {
			x[col] = coef[jj]
		}
		residual = mat.SubVec(b, mat.MulVec(a, x))
	}
	res := finish(a, b, x, len(active), mat.Norm2(residual) <= resTol)
	return res, nil
}
