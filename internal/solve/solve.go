// Package solve implements the sparse signal recovery programs CrowdWiFi
// needs for compressive sensing, written from scratch on internal/mat:
//
//   - BasisPursuit: min ‖x‖₁ subject to Ax = b (ADMM).
//   - BPDN: min ½‖Ax − b‖₂² + λ‖x‖₁ (ADMM with the matrix inversion lemma,
//     so the per-iteration factorization is M×M even when N ≫ M).
//   - FISTA / ISTA: accelerated and plain proximal gradient for the same
//     LASSO objective.
//   - OMP: orthogonal matching pursuit, the classical greedy baseline.
//   - IRLS: iteratively reweighted least squares for the equality-constrained
//     ℓ1 program.
//
// All solvers are deterministic given their inputs. The paper's ℓ1
// minimization (Section 4.1) maps onto BPDN when measurements are noisy and
// BasisPursuit in the noiseless limit.
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

// Options tunes the iterative solvers. The zero value selects sensible
// defaults via fill().
type Options struct {
	// MaxIter caps the iteration count (default 500).
	MaxIter int
	// Tol is the convergence tolerance on primal/dual residuals or relative
	// change (default 1e-6).
	Tol float64
	// Rho is the ADMM penalty parameter (default 1).
	Rho float64
	// NonNegative additionally constrains x ≥ 0. The proximal step becomes
	// max(v − t, 0), the prox of t·‖·‖₁ + ι_{x≥0}. CrowdWiFi enables this for
	// AP recovery because the indicator coefficients Θ are 0/1.
	NonNegative bool
	// Ctx, when non-nil, is checked every ctxCheckEvery iterations; a
	// canceled context aborts the solve with a wrapped ctx.Err(). This is how
	// a per-round deadline interrupts the ℓ1 search mid-iteration.
	Ctx context.Context
	// Metrics, when non-nil, records run outcomes, iteration counts, and
	// residual norms per solver.
	Metrics *Metrics
}

// ctxCheckEvery is how often (in iterations) the solvers poll Options.Ctx.
// Each iteration is at least one M×N matvec, so the poll adds no measurable
// cost while keeping cancellation latency to a handful of matvecs.
const ctxCheckEvery = 8

// checkCtx returns a wrapped context error when o.Ctx is canceled and the
// iteration count hits the polling stride.
func (o Options) checkCtx(name string, it int) error {
	if o.Ctx == nil || it%ctxCheckEvery != 0 {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return fmt.Errorf("solve: %s canceled at iteration %d: %w", name, it, err)
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
	if o.Rho <= 0 {
		o.Rho = 1
	}
	return o
}

// ErrDimension is returned when A and b are incompatible.
var ErrDimension = errors.New("solve: A and b dimensions are incompatible")

// SoftThreshold returns sign(v)·max(|v|−t, 0), the proximal operator of
// t·‖·‖₁.
func SoftThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

// prox applies the ℓ1 proximal operator, optionally restricted to the
// non-negative orthant.
func prox(v, t float64, nonNeg bool) float64 {
	if nonNeg {
		if v > t {
			return v - t
		}
		return 0
	}
	return SoftThreshold(v, t)
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

// BasisPursuit solves min ‖x‖₁ subject to Ax = b by ADMM. The x-update is a
// Euclidean projection onto the affine constraint set, precomputed through
// the pseudo-inverse of A. A must have at least as many columns as rows for
// the constraint set to be non-trivial, but any shape is accepted.
func BasisPursuit(a *mat.Mat, b []float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	o := opts.fill()

	pinv := mat.PseudoInverse(a, 0)
	// Particular solution of Ax = b and the associated projector offset.
	xp := mat.MulVec(pinv, b)

	x := mat.CloneVec(xp)
	z := make([]float64, n)
	u := make([]float64, n)
	zu := make([]float64, n)
	zOld := make([]float64, n)

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx("basis_pursuit", it); err != nil {
			return nil, err
		}
		// x ← Π_{Ax=b}(z − u) = (z − u) − A†(A(z − u) − b).
		for i := range zu {
			zu[i] = z[i] - u[i]
		}
		resid := mat.SubVec(mat.MulVec(a, zu), b)
		corr := mat.MulVec(pinv, resid)
		for i := range x {
			x[i] = zu[i] - corr[i]
		}
		copy(zOld, z)
		// z ← S_{1/ρ}(x + u).
		for i := range z {
			z[i] = prox(x[i]+u[i], 1/o.Rho, o.NonNegative)
		}
		// u ← u + x − z.
		var primal, dual float64
		for i := range u {
			u[i] += x[i] - z[i]
			d := x[i] - z[i]
			primal += d * d
			dz := z[i] - zOld[i]
			dual += dz * dz
		}
		if math.Sqrt(primal) < o.Tol*math.Sqrt(float64(n)) &&
			o.Rho*math.Sqrt(dual) < o.Tol*math.Sqrt(float64(n)) {
			return o.record("basis_pursuit", finish(a, b, z, it, true)), nil
		}
	}
	return o.record("basis_pursuit", finish(a, b, z, o.MaxIter, false)), nil
}

// BPDN solves the LASSO form min ½‖Ax − b‖₂² + λ‖x‖₁ by ADMM. For wide A
// (N > M) the x-update uses the matrix inversion lemma so only an M×M system
// is factorized once:
//
//	(AᵀA + ρI)⁻¹ = (1/ρ)(I − Aᵀ(ρI + AAᵀ)⁻¹A).
//
// Every vector the iteration touches is made once, before the loop, and owned
// by this call.
func BPDN(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if lambda <= 0 {
		return nil, errors.New("solve: BPDN requires lambda > 0")
	}
	o := opts.fill()

	atb := mat.MulTVec(a, b)
	x := make([]float64, n)

	// Factorize the small Gram system once; updateX solves for x from q.
	var updateX func(q []float64)
	if n > m {
		g := mat.AAt(a) // M×M
		for i := 0; i < m; i++ {
			g.Set(i, i, g.At(i, i)+o.Rho)
		}
		chol, err := mat.FactorizeCholesky(g)
		if err != nil {
			return nil, err
		}
		t := make([]float64, m)
		updateX = func(q []float64) {
			// x = q/ρ − Aᵀ(ρI + AAᵀ)⁻¹A q / ρ.
			mat.MulVecTo(t, a, q)
			chol.SolveVecTo(t, t)
			mat.MulTVecTo(x, a, t)
			for i := range x {
				x[i] = (q[i] - x[i]) / o.Rho
			}
		}
	} else {
		g := mat.AtA(a) // N×N
		for i := 0; i < n; i++ {
			g.Set(i, i, g.At(i, i)+o.Rho)
		}
		chol, err := mat.FactorizeCholesky(g)
		if err != nil {
			return nil, err
		}
		updateX = func(q []float64) { chol.SolveVecTo(x, q) }
	}

	z := make([]float64, n)
	u := make([]float64, n)
	q := make([]float64, n)
	zOld := make([]float64, n)

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx("bpdn", it); err != nil {
			return nil, err
		}
		for i := range q {
			q[i] = atb[i] + o.Rho*(z[i]-u[i])
		}
		updateX(q)
		copy(zOld, z)
		for i := range z {
			z[i] = prox(x[i]+u[i], lambda/o.Rho, o.NonNegative)
		}
		var primal, dual float64
		for i := range u {
			u[i] += x[i] - z[i]
			d := x[i] - z[i]
			primal += d * d
			dz := z[i] - zOld[i]
			dual += dz * dz
		}
		if math.Sqrt(primal) < o.Tol*math.Sqrt(float64(n)) &&
			o.Rho*math.Sqrt(dual) < o.Tol*math.Sqrt(float64(n)) {
			return o.record("bpdn", finish(a, b, z, it, true)), nil
		}
	}
	return o.record("bpdn", finish(a, b, z, o.MaxIter, false)), nil
}

// FISTA solves min ½‖Ax − b‖₂² + λ‖x‖₁ by accelerated proximal gradient.
// The gradient Lipschitz constant is bounded by the largest eigenvalue of
// AᵀA, estimated by power iteration on the smaller Gram matrix.
func FISTA(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	return proxGradient(a, b, lambda, opts, true)
}

// ISTA is FISTA without momentum; it exists as an ablation reference.
func ISTA(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	return proxGradient(a, b, lambda, opts, false)
}

func proxGradient(a *mat.Mat, b []float64, lambda float64, opts Options, accelerate bool) (*Result, error) {
	name := "ista"
	if accelerate {
		name = "fista"
	}
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if lambda <= 0 {
		return nil, errors.New("solve: proximal gradient requires lambda > 0")
	}
	o := opts.fill()

	// λmax(AᵀA) = λmax(AAᵀ); iterate on the smaller one.
	var gram *mat.Mat
	if m <= n {
		gram = mat.AAt(a)
	} else {
		gram = mat.AtA(a)
	}
	lip := mat.PowerIterationMaxEig(gram, 100)
	if lip <= 0 {
		lip = 1
	}
	step := 1 / lip

	x := make([]float64, n)
	y := make([]float64, n)
	xOld := make([]float64, n)
	tMom := 1.0

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx(name, it); err != nil {
			return nil, err
		}
		// Gradient of the smooth part at y: Aᵀ(Ay − b).
		grad := mat.MulTVec(a, mat.SubVec(mat.MulVec(a, y), b))
		copy(xOld, x)
		for i := range x {
			x[i] = prox(y[i]-step*grad[i], step*lambda, o.NonNegative)
		}
		if accelerate {
			tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
			beta := (tMom - 1) / tNext
			for i := range y {
				y[i] = x[i] + beta*(x[i]-xOld[i])
			}
			tMom = tNext
		} else {
			copy(y, x)
		}
		// Relative change stopping rule. On its own this rule is unsound:
		// x == xOld holds at iteration 1 whenever the first proximal step is
		// tiny (an overestimated Lipschitz bound, or momentum cancellation
		// later on), even when x is nowhere near a minimizer. The cheap
		// relative-change test therefore only gates the authoritative check
		// below.
		var diff, norm float64
		for i := range x {
			d := x[i] - xOld[i]
			diff += d * d
			norm += x[i] * x[i]
		}
		if math.Sqrt(diff) < o.Tol*(1+math.Sqrt(norm)) &&
			proxStationary(a, b, x, lambda, step, o) {
			return o.record(name, finish(a, b, x, it, true)), nil
		}
	}
	return o.record(name, finish(a, b, x, o.MaxIter, false)), nil
}

// proxStationary verifies first-order optimality of x for the LASSO
// objective via the gradient mapping G(x) = (x − prox_{step·λ}(x − step·∇f(x)))/step,
// which vanishes exactly at minimizers. The relative-change rule alone can
// fire at non-stationary points (see proxGradient); this check is only run
// once that cheap rule passes, so its extra matvec is paid at most a handful
// of times per solve.
func proxStationary(a *mat.Mat, b, x []float64, lambda, step float64, o Options) bool {
	gx := mat.MulTVec(a, mat.SubVec(mat.MulVec(a, x), b))
	var mapNorm, xNorm float64
	exact := true
	for i := range x {
		px := prox(x[i]-step*gx[i], step*lambda, o.NonNegative)
		d := (x[i] - px) / step
		mapNorm += d * d
		if px != x[i] {
			exact = false
		}
		xNorm += x[i] * x[i]
	}
	// A bitwise fixed point is stationary regardless of scaling.
	return exact || math.Sqrt(mapNorm) < o.Tol*(1+math.Sqrt(xNorm))
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

// IRLS solves min ‖x‖₁ s.t. Ax = b by iteratively reweighted least squares:
// x ← W Aᵀ (A W Aᵀ)⁻¹ b with W = diag(|x| + ε), shrinking ε as the iterate
// stabilizes. It requires A to have full row rank.
func IRLS(a *mat.Mat, b []float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	o := opts.fill()

	x := make([]float64, n)
	for i := range x {
		x[i] = 1 // uninformative start
	}
	eps := 1.0
	xOld := make([]float64, n)

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx("irls", it); err != nil {
			return nil, err
		}
		copy(xOld, x)
		// Build A W Aᵀ with W = diag(w), w_i = |x_i| + ε.
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Abs(x[i]) + eps
		}
		awat := mat.New(m, m)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				var s float64
				for kk := 0; kk < n; kk++ {
					s += a.At(i, kk) * w[kk] * a.At(j, kk)
				}
				awat.Set(i, j, s)
				awat.Set(j, i, s)
			}
		}
		y, err := mat.SolveLinear(awat, b)
		if err != nil {
			return nil, err
		}
		aty := mat.MulTVec(a, y)
		for i := range x {
			x[i] = w[i] * aty[i]
		}
		var diff float64
		for i := range x {
			d := x[i] - xOld[i]
			diff += d * d
		}
		if math.Sqrt(diff) < math.Sqrt(eps)/100 {
			eps /= 10
			if eps < o.Tol*o.Tol {
				return o.record("irls", finish(a, b, x, it, true)), nil
			}
		}
	}
	return o.record("irls", finish(a, b, x, o.MaxIter, false)), nil
}
