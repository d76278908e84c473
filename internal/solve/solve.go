// Package solve implements the one sparse recovery program CrowdWiFi runs,
// written from scratch on internal/mat:
//
//   - BPDN: min ½‖Ax − b‖₂² + λ‖x‖₁ (ADMM with the matrix inversion lemma,
//     so the one factorization is M×M even when N ≫ M). For wide A the
//     iteration runs in (z, v), v an M-vector: two M×M triangular solves, M×M
//     products, and A's columns at z's non-zero coordinates only. A screen
//     proves when no zero coordinate can leave zero; only the iterations it
//     cannot clear make a pass over all N coordinates, with one product Aᵀv.
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
	// Passes is the number of those iterations that stepped all N
	// coordinates; the others stepped only the non-zero ones (see BPDN).
	Passes int
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
// Each iteration makes at least one solve with the Cholesky factor, so the
// poll adds no measurable cost while keeping cancellation latency to a
// handful of iterations.
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

// finish makes the Result of a loop whose every iteration made a pass.
func finish(a *mat.Mat, b, x []float64, iters int, converged bool) *Result {
	r := mat.SubVec(mat.MulVec(a, x), b)
	return &Result{
		X:          x,
		Iterations: iters,
		Passes:     iters,
		Converged:  converged,
		Residual:   mat.Norm2(r),
		Objective:  mat.Norm1(x),
	}
}

// BPDN solves the LASSO form min ½‖Ax − b‖₂² + λ‖x‖₁ by ADMM (Boyd et al.,
// "Distributed Optimization and Statistical Learning via ADMM", 2011, §6.4):
// x = (AᵀA + ρI)⁻¹(Aᵀb + ρ(z − u)), z = prox(x + u), u += x − z, stopped when
// both ‖x − z‖ and ρ‖Δz‖ are below Tol·√N, or at MaxIter.
//
// For wide A (N > M) the matrix inversion lemma
//
//	(AᵀA + ρI)⁻¹ = (1/ρ)(I − Aᵀ(ρI + AAᵀ)⁻¹A)
//
// leaves one M×M factorization, and the iteration runs in (z, v) with the
// M-vector v = (b − s)/ρ, s = (ρI + AAᵀ)⁻¹Aq: the prox input of coordinate i
// is then pᵢ = aᵢᵀv + zᵢ, u = p − z is never stored, and
//
//	Aq = AAᵀ(b − ρv_prev) + ρ(2Az − Az_prev)
//
// needs A only at z's non-zero coordinates. The residuals come from the
// coordinates that changed: ρ‖Δz‖ directly, and ‖x − z‖² = ‖AᵀΔv + Δz_prev −
// Δz‖² expanded through AAᵀ. These are the iterates of the textbook loop, in
// another rounding. Most iterations need no pass over the N coordinates (see
// wide). For tall A the N×N system is factorized and the loop is the textbook
// one, one pass per iteration.
func BPDN(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if lambda <= 0 {
		return nil, errors.New("solve: BPDN requires lambda > 0")
	}
	o := opts.fill()
	if n > m {
		return wide(a, b, lambda/rho, o)
	}
	return tall(a, b, lambda/rho, o)
}

// tall is BPDN for N ≤ M: one N×N factorization, then per iteration one
// solve and one pass over the N-vectors for the prox, the u and z steps, both
// residual sums and the next iteration's q. Every vector is made once,
// before the loop.
func tall(a *mat.Mat, b []float64, thresh float64, o Options) (*Result, error) {
	_, n := a.Dims()
	g := mat.AtA(a)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+rho)
	}
	chol, err := mat.FactorizeCholesky(g)
	if err != nil {
		return nil, err
	}
	atb := mat.MulTVec(a, b)
	vs := make([]float64, 3*n)
	w, u, q := vs[:n], vs[n:2*n], vs[2*n:]
	z := make([]float64, n)
	for i := range q {
		q[i] = atb[i] + rho*(z[i]-u[i])
	}
	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx(it); err != nil {
			return nil, err
		}
		chol.SolveVecTo(w, q)
		var primal, dual float64
		w, u, q, atb := w[:len(z)], u[:len(z)], q[:len(z)], atb[:len(z)]
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
		if converged(primal, dual, n, o.Tol) {
			return o.Metrics.record(finish(a, b, z, it, true)), nil
		}
	}
	return o.Metrics.record(finish(a, b, z, o.MaxIter, false)), nil
}

// converged is the stopping rule on the squared residual sums.
func converged(primal, dual float64, n int, tol float64) bool {
	return math.Sqrt(primal) < tol*math.Sqrt(float64(n)) &&
		rho*math.Sqrt(dual) < tol*math.Sqrt(float64(n))
}

// screenMargin is the relative slack the screen keeps below λ/ρ for the
// rounding of aᵢᵀv and of the bound itself.
const screenMargin = 1e-9

// wide is BPDN for N > M in (z, v), screened. A pass over all N coordinates
// stores cᵢ = aᵢᵀv at that iteration's v, the anchor. Until the next pass a
// zero coordinate's prox input aᵢᵀv differs from cᵢ by at most
// max‖aᵢ‖·‖v − v_anchor‖, so while
//
//	max_{zᵢ=0} cᵢ + max‖aᵢ‖·‖v − v_anchor‖ < λ/ρ
//
// (|cᵢ| for the signed prox) no zero coordinate can leave zero, and the
// iteration steps only the non-zero ones; otherwise it makes a pass and
// moves the anchor. A coordinate that drops to zero raises the max with its
// cᵢ. The floats live in one slab and the indices in another, both made
// before the loop; z is the first N floats and becomes Result.X.
func wide(a *mat.Mat, b []float64, thresh float64, o Options) (*Result, error) {
	m, n := a.Dims()
	g := mat.AAt(a)
	fs := make([]float64, 3*n+7*m+m*m)
	z, c, dlast := fs[:n:n], fs[n:2*n:2*n], fs[2*n:3*n:3*n]
	mv := func(k int) []float64 { return fs[3*n+k*m : 3*n+(k+1)*m : 3*n+(k+1)*m] }
	v, vPrev, vAnchor, s := mv(0), mv(1), mv(2), mv(3)
	az, azPrev, azNew := mv(4), mv(5), mv(6)
	gram := fs[3*n+7*m:]
	for k := 0; k < m; k++ {
		copy(gram[k*m:(k+1)*m], g.RawRow(k))
		g.Set(k, k, g.At(k, k)+rho)
	}
	chol, err := mat.FactorizeCholesky(g)
	if err != nil {
		return nil, err
	}
	is := make([]int32, 2*n)
	// stamp[i] is the last iteration at which zᵢ changed, by dlast[i].
	stamp, active := is[:n:n], is[n:n]
	normMax := maxColNorm(a)

	anchored, done := false, false
	zeroMax := math.Inf(-1)
	iters, passes := o.MaxIter, 0
	var dualPrev float64
	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx(it); err != nil {
			return nil, err
		}
		// s = (ρI + AAᵀ)⁻¹Aq, Aq = AAᵀ(b − ρv_prev) + ρ(2Az − Az_prev).
		copy(vPrev, v)
		for k := range v {
			v[k] = b[k] - rho*vPrev[k]
		}
		for k := 0; k < m; k++ {
			row := gram[k*m : (k+1)*m]
			var t float64
			for j, gkj := range row {
				t += gkj * v[j]
			}
			s[k] = t + rho*(2*az[k]-azPrev[k])
		}
		chol.SolveVecTo(s, s)
		for k := range v {
			v[k] = (b[k] - s[k]) / rho
		}

		screened := false
		if anchored {
			var dist, vn, van float64
			for k := range v {
				d := v[k] - vAnchor[k]
				dist += d * d
				vn += v[k] * v[k]
				van += vAnchor[k] * vAnchor[k]
			}
			bound := zeroMax + normMax*math.Sqrt(dist)
			slack := screenMargin * (math.Abs(thresh) + normMax*(math.Sqrt(vn)+math.Sqrt(van)))
			screened = bound+slack < thresh
		}

		// A screened iteration steps the non-zero coordinates; a pass steps
		// all of them from c = Aᵀv and moves the anchor. dual sums Δz², cross
		// Δz_prev·Δz. The two loops are one step written twice: as one loop
		// the pass costs half as much again.
		var dual, cross float64
		if screened {
			kept := active[:0]
			for _, i := range active {
				zi := z[i]
				zn := prox(colDot(a, int(i), v)+zi, thresh, o.NonNegative)
				if zn != zi {
					dz := zn - zi
					dual += dz * dz
					if stamp[i] == int32(it-1) {
						cross += dlast[i] * dz
					}
					stamp[i], dlast[i], z[i] = int32(it), dz, zn
				}
				if zn != 0 {
					kept = append(kept, i)
				} else if sv := screenValue(c[i], o.NonNegative); sv > zeroMax {
					zeroMax = sv
				}
			}
			active = kept
		} else {
			passes++
			mat.MulTVecTo(c, a, v)
			copy(vAnchor, v)
			anchored = true
			active = active[:0]
			zeroMax = math.Inf(-1)
			c, stamp, dlast := c[:len(z)], stamp[:len(z)], dlast[:len(z)]
			for i, zi := range z {
				ci := c[i]
				zn := prox(ci+zi, thresh, o.NonNegative)
				if zn != zi {
					dz := zn - zi
					dual += dz * dz
					if stamp[i] == int32(it-1) {
						cross += dlast[i] * dz
					}
					stamp[i], dlast[i], z[i] = int32(it), dz, zn
				}
				if zn != 0 {
					active = append(active, int32(i))
				} else if sv := screenValue(ci, o.NonNegative); sv > zeroMax {
					zeroMax = sv
				}
			}
		}
		// Az over the non-zero coordinates, summed afresh so it cannot drift.
		mulActive(azNew, a, active, z)

		// ‖x − z‖² = ‖AᵀΔv + d‖², d = Δz_prev − Δz: ΔvᵀAAᵀΔv + 2Δvᵀ(Ad) +
		// ‖d‖², with Ad = 2Az − Az_prev − Az_new and ‖d‖² = ‖Δz_prev‖² −
		// 2Δz_prev·Δz + ‖Δz‖².
		var primal float64
		for k := 0; k < m; k++ {
			row := gram[k*m : (k+1)*m]
			var t float64
			for j, gkj := range row {
				t += gkj * (v[j] - vPrev[j])
			}
			dvk := v[k] - vPrev[k]
			primal += dvk * (t + 2*(2*az[k]-azPrev[k]-azNew[k]))
		}
		primal = max(primal+dualPrev-2*cross+dual, 0)
		az, azPrev, azNew = azNew, az, azPrev
		dualPrev = dual

		if converged(primal, dual, n, o.Tol) {
			iters, done = it, true
			break
		}
	}
	res := finish(a, b, z, iters, done)
	res.Passes = passes
	return o.Metrics.record(res), nil
}

// colDot returns aᵢᵀv, summed over A's rows in order.
func colDot(a *mat.Mat, i int, v []float64) float64 {
	var p float64
	for k, vk := range v {
		p += a.RawRow(k)[i] * vk
	}
	return p
}

// mulActive writes Az into dst, summing z over the coordinates in active.
func mulActive(dst []float64, a *mat.Mat, active []int32, z []float64) {
	for k := range dst {
		row := a.RawRow(k)
		var t float64
		for _, i := range active {
			t += row[i] * z[i]
		}
		dst[k] = t
	}
}

// maxColNorm returns max‖aᵢ‖, the screen's drift factor.
func maxColNorm(a *mat.Mat) float64 {
	m, n := a.Dims()
	var worst float64
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < m; k++ {
			s += a.At(k, i) * a.At(k, i)
		}
		worst = max(worst, s)
	}
	return math.Sqrt(worst)
}

// screenValue is what bounds a zero coordinate's prox input at the anchor:
// cᵢ for the non-negative prox, which only a large positive input leaves
// zero, and |cᵢ| for the signed one.
func screenValue(ci float64, nonNeg bool) float64 {
	if nonNeg {
		return ci
	}
	return math.Abs(ci)
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
