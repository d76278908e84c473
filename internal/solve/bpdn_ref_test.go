package solve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"crowdwifi/internal/mat"
)

// bpdnRef is BPDN as it was before its loop stopped allocating: four fresh
// slices per iteration from the allocating kernels. BPDN must do the same
// arithmetic in the same order, so the two agree to the bit.
func bpdnRef(a *mat.Mat, b []float64, lambda float64, opts Options) (*Result, error) {
	m, n := a.Dims()
	if len(b) != m {
		return nil, ErrDimension
	}
	if lambda <= 0 {
		return nil, errors.New("solve: BPDN requires lambda > 0")
	}
	o := opts.fill()

	atb := mat.MulTVec(a, b)

	// Factorize the small Gram system once.
	var solveX func(q []float64) []float64
	if n > m {
		g := mat.AAt(a) // M×M
		for i := 0; i < m; i++ {
			g.Set(i, i, g.At(i, i)+rho)
		}
		chol, err := mat.FactorizeCholesky(g)
		if err != nil {
			return nil, err
		}
		solveX = func(q []float64) []float64 {
			// x = q/ρ − Aᵀ(ρI + AAᵀ)⁻¹A q / ρ.
			aq := mat.MulVec(a, q)
			t := chol.SolveVecTo(make([]float64, m), aq)
			at := mat.MulTVec(a, t)
			x := make([]float64, n)
			for i := range x {
				x[i] = (q[i] - at[i]) / rho
			}
			return x
		}
	} else {
		g := mat.AtA(a) // N×N
		for i := 0; i < n; i++ {
			g.Set(i, i, g.At(i, i)+rho)
		}
		chol, err := mat.FactorizeCholesky(g)
		if err != nil {
			return nil, err
		}
		solveX = func(q []float64) []float64 { return chol.SolveVecTo(make([]float64, n), q) }
	}

	x := make([]float64, n)
	z := make([]float64, n)
	u := make([]float64, n)
	q := make([]float64, n)
	zOld := make([]float64, n)

	for it := 1; it <= o.MaxIter; it++ {
		if err := o.checkCtx(it); err != nil {
			return nil, err
		}
		for i := range q {
			q[i] = atb[i] + rho*(z[i]-u[i])
		}
		x = solveX(q)
		copy(zOld, z)
		for i := range z {
			z[i] = prox(x[i]+u[i], lambda/rho, o.NonNegative)
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
			rho*math.Sqrt(dual) < o.Tol*math.Sqrt(float64(n)) {
			return o.Metrics.record(finish(a, b, z, it, true)), nil
		}
	}
	return o.Metrics.record(finish(a, b, z, o.MaxIter, false)), nil
}

// runUpProblem is an ℓ1 program of the shape the vehicle solves: a group of
// readings along a road over the UCI area's grid — 17×11 points at the 20 m
// lattice (lattice 0), 39×24 at 8 m — reduced by Proposition 1 to its r
// leading directions (Q = Σ⁻¹UᵀA and y′ = Σ⁻¹Uᵀy from the eigenpairs of
// AAᵀ), columns scaled to unit norm, and λ a tenth of ‖Qᵀy′‖∞.
func runUpProblem(seed int64, readings, r int, lattice float64) (*mat.Mat, []float64, float64) {
	if lattice == 0 {
		lattice = 20
	}
	const areaW, areaH, cell = 304.0, 184.0, 20.0
	gridCols, gridRows := int(math.Ceil(areaW/lattice))+1, int(math.Ceil(areaH/lattice))+1
	rng := rand.New(rand.NewSource(seed))
	ap := [2]float64{cell * (2 + 12*rng.Float64()), cell * (1 + 8*rng.Float64())}
	meanRSS := func(x, y, px, py float64) float64 {
		return -40 - 30*math.Log10(math.Max(math.Hypot(x-px, y-py), 1))
	}
	a := mat.New(readings, gridCols*gridRows)
	y := make([]float64, readings)
	x0, road := cell*(1+10*rng.Float64()), cell*(2+6*rng.Float64())
	for i := 0; i < readings; i++ {
		x, yy := x0+9*float64(i), road+2*rng.NormFloat64()
		row := a.RawRow(i)
		for j := range row {
			row[j] = meanRSS(x, yy, lattice*float64(j%gridCols), lattice*float64(j/gridCols))
		}
		y[i] = meanRSS(x, yy, ap[0], ap[1]) + 4*rng.NormFloat64()
	}
	eig, err := mat.FactorizeSymEigen(mat.AAt(a))
	if err != nil {
		panic(err)
	}
	q := mat.New(r, gridCols*gridRows)
	yp := make([]float64, r)
	for k := 0; k < r; k++ {
		inv := 1 / math.Sqrt(eig.Values[k])
		for i := 0; i < readings; i++ {
			c := eig.Vectors.At(i, k) * inv
			yp[k] += c * y[i]
			for j, v := range a.RawRow(i) {
				q.RawRow(k)[j] += c * v
			}
		}
	}
	for j := 0; j < gridCols*gridRows; j++ {
		var norm float64
		for k := 0; k < r; k++ {
			norm += q.At(k, j) * q.At(k, j)
		}
		for k := 0; k < r; k++ {
			q.Set(k, j, q.At(k, j)/math.Sqrt(norm))
		}
	}
	return q, yp, 0.1 * mat.NormInf(mat.MulTVec(q, yp))
}

// vehicleOpts are the solver options every group recovery runs with.
var vehicleOpts = Options{MaxIter: 400, Tol: 1e-6, NonNegative: true}

// bpdnCases covers both x-update branches, both proximal operators, and both
// ways out of the loop, and the shapes the vehicle solves: r = 1, 2 and 3
// rows after Proposition 1 (an odd r leaves one row over when rows are taken
// in pairs), both at the iteration cap and converged, a full window's r = 4,
// and groups over the paper's 8 m lattice (936 grid points).
var bpdnCases = []bpdnCase{
	{name: "wide converges", m: 24, n: 176, k: 3, lambda: 0.05, opts: Options{MaxIter: 2000, Tol: 1e-6}, exit: "converged"},
	{name: "wide non-negative", m: 24, n: 176, k: 3, lambda: 0.05, opts: Options{MaxIter: 2000, Tol: 1e-6, NonNegative: true}, exit: "converged"},
	{name: "wide exhausts MaxIter", m: 24, n: 176, k: 3, lambda: 0.05, opts: Options{MaxIter: 50, Tol: 1e-12, NonNegative: true}, exit: "exhausted"},
	{name: "wide, tight tolerance", m: 30, n: 90, k: 4, lambda: 0.02, opts: Options{MaxIter: 300, Tol: 1e-9}},
	{name: "tall converges", m: 60, n: 20, k: 3, lambda: 0.01, opts: Options{MaxIter: 2000, Tol: 1e-6}, exit: "converged"},
	{name: "tall non-negative exhausts", m: 60, n: 20, k: 3, lambda: 0.01, opts: Options{MaxIter: 7, Tol: 1e-12, NonNegative: true}, exit: "exhausted"},
	{name: "square", m: 16, n: 16, k: 2, lambda: 0.01, opts: Options{MaxIter: 500, Tol: 1e-8}},
	{name: "run-up r=1 converges", m: 24, rank: 1, seed: 1, opts: vehicleOpts, exit: "converged"},
	{name: "run-up r=2 at the cap", m: 24, rank: 2, seed: 1, opts: vehicleOpts, exit: "exhausted"},
	{name: "run-up r=2 converges", m: 12, rank: 2, seed: 2, opts: vehicleOpts, exit: "converged"},
	{name: "run-up r=3 at the cap", m: 24, rank: 3, seed: 1, opts: vehicleOpts, exit: "exhausted"},
	{name: "run-up r=3 converges", m: 12, rank: 3, seed: 1, opts: vehicleOpts, exit: "converged"},
	{name: "full window r=4", m: 24, rank: 4, seed: 1, opts: vehicleOpts},
	{name: "8 m lattice r=4", m: 24, rank: 4, seed: 3, lattice: 8, opts: vehicleOpts},
	// A zero coordinate whose correlation creeps up to λ/ρ joins the support
	// late, after a long run of screened iterations
	// (TestBPDNScreenLetsLateCoordinatesIn).
	{name: "8 m lattice, late support entry", m: 8, rank: 2, seed: 7, lattice: 8, opts: vehicleOpts},
}

type bpdnCase struct {
	name    string
	m, n, k int
	lambda  float64
	opts    Options
	// rank, when set, makes the case runUpProblem(seed, m, rank, lattice),
	// at 20 m when lattice is 0; n, k and lambda are then the problem's own.
	rank    int
	seed    int64
	lattice float64
	// exit is the way out of the loop the case is there to cover: "converged",
	// "exhausted", or "" for either.
	exit string
}

// problem builds case i's A, b and λ.
func (tc bpdnCase) problem(i int) (*mat.Mat, []float64, float64) {
	if tc.rank > 0 {
		return runUpProblem(tc.seed, tc.m, tc.rank, tc.lattice)
	}
	a, _, b := sparseProblem(int64(100+i), tc.m, tc.n, tc.k, 0.01)
	return a, b, tc.lambda
}

// TestBPDNMatchesReferenceBitForBit holds the tall branch, whose loop is the
// reference's, to the reference bit for bit. The wide branch iterates in
// (z, v) and rounds differently; TestBPDNMatchesReference bounds it.
func TestBPDNMatchesReferenceBitForBit(t *testing.T) {
	for i, tc := range bpdnCases {
		a, b, lambda := tc.problem(i)
		if m, n := a.Dims(); n > m {
			continue
		}
		got, err := BPDN(a, b, lambda, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := bpdnRef(a, b, lambda, tc.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if (tc.exit == "converged" && !want.Converged) || (tc.exit == "exhausted" && want.Converged) {
			t.Fatalf("%s: reference converged=%v after %d iterations; the case is there to cover %q",
				tc.name, want.Converged, want.Iterations, tc.exit)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("%s: %d iterations converged=%v, reference %d converged=%v",
				tc.name, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		for _, f := range [][2]float64{{got.Residual, want.Residual}, {got.Objective, want.Objective}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%s: residual/objective %v, reference %v", tc.name, f[0], f[1])
			}
		}
		if len(got.X) != len(want.X) {
			t.Fatalf("%s: len(X) %d, reference %d", tc.name, len(got.X), len(want.X))
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("%s: X[%d] = %v, reference %v", tc.name, j, got.X[j], want.X[j])
			}
		}
	}
}

// TestBPDNAllocationsIndependentOfIterations runs a problem that cannot meet
// its tolerance for 50 and for 400 iterations: what BPDN allocates is set-up
// and the result, none of it per iteration.
func TestBPDNAllocationsIndependentOfIterations(t *testing.T) {
	for _, shape := range [][2]int{{24, 176}, {60, 20}} {
		a, _, b := sparseProblem(5, shape[0], shape[1], 3, 0.01)
		allocs := func(maxIter int) float64 {
			opts := Options{MaxIter: maxIter, Tol: 1e-300, NonNegative: true}
			return testing.AllocsPerRun(5, func() {
				res, err := BPDN(a, b, 0.05, opts)
				if err != nil || res.Converged || res.Iterations != maxIter {
					t.Fatalf("want %d unconverged iterations, got %+v, %v", maxIter, res, err)
				}
			})
		}
		short, long := allocs(50), allocs(400)
		if short != long {
			t.Errorf("%dx%d: %v allocations over 50 iterations, %v over 400", shape[0], shape[1], short, long)
		}
		if short > 20 {
			t.Errorf("%dx%d: %v allocations per solve, want a fixed handful", shape[0], shape[1], short)
		}
	}
}

// TestBPDNMatchesReference holds BPDN to the reference on every case: the same
// iteration count and way out of the loop, and X, the residual and the
// objective within refTol relative.
func TestBPDNMatchesReference(t *testing.T) {
	const refTol = 1e-9
	for i, tc := range bpdnCases {
		a, b, lambda := tc.problem(i)
		got, err := BPDN(a, b, lambda, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := bpdnRef(a, b, lambda, tc.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if (tc.exit == "converged" && !want.Converged) || (tc.exit == "exhausted" && want.Converged) {
			t.Fatalf("%s: reference converged=%v after %d iterations; the case is there to cover %q",
				tc.name, want.Converged, want.Iterations, tc.exit)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("%s: %d iterations converged=%v, reference %d converged=%v",
				tc.name, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		if d := relDiff(got.X, want.X); !(d <= refTol) {
			t.Errorf("%s: X is %.3g relative ℓ2 from the reference", tc.name, d)
		}
		for _, f := range [][2]float64{{got.Residual, want.Residual}, {got.Objective, want.Objective}} {
			if d := relDiff(f[:1], f[1:]); !(d <= refTol) {
				t.Errorf("%s: residual/objective %v, reference %v", tc.name, f[0], f[1])
			}
		}
	}
}

// relDiff is ‖x − y‖₂ / ‖y‖₂, or ‖x‖₂ when y is zero.
func relDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		return math.Inf(1)
	}
	d := make([]float64, len(x))
	for i := range x {
		d[i] = x[i] - y[i]
	}
	if ny := mat.Norm2(y); ny > 0 {
		return mat.Norm2(d) / ny
	}
	return mat.Norm2(d)
}

// TestBPDNScreenLetsLateCoordinatesIn runs the late-entry case one iteration
// at a time (MaxIter = 1, 2, …, 100) and finds the coordinate that turns
// non-zero after the longest run of iterations that stepped only the non-zero
// coordinates: the run is at least 50 long, and the reference has the
// coordinate non-zero at that iteration too. Screening on the anchor's
// correlations alone, without the drift max‖aᵢ‖·‖v − v_anchor‖, holds it out.
func TestBPDNScreenLetsLateCoordinatesIn(t *testing.T) {
	var tc bpdnCase
	var idx int
	for i, c := range bpdnCases {
		if c.name == "8 m lattice, late support entry" {
			tc, idx = c, i
		}
	}
	a, b, lambda := tc.problem(idx)
	run := func(maxIter int) *Result {
		o := tc.opts
		o.MaxIter = maxIter
		res, err := BPDN(a, b, lambda, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev, screened := run(1), 0
	longest, at, coord := -1, 0, 0
	for k := 2; k <= 100; k++ {
		cur := run(k)
		for i, x := range cur.X {
			if x != 0 && prev.X[i] == 0 && screened > longest {
				longest, at, coord = screened, k, i
			}
		}
		if cur.Passes == prev.Passes {
			screened++
		} else {
			screened = 0
		}
		prev = cur
	}
	if longest < 50 {
		t.Fatalf("the latest entry, coordinate %d at iteration %d, came after %d screened iterations; want at least 50", coord, at, longest)
	}
	o := tc.opts
	o.MaxIter = at
	want, err := bpdnRef(a, b, lambda, o)
	if err != nil || want.X[coord] == 0 {
		t.Fatalf("the reference has coordinate %d at %v after %d iterations (%v)", coord, want.X[coord], at, err)
	}
}
