package solve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdwifi/internal/mat"
)

// sparseProblem builds an m×n Gaussian sensing matrix with unit-norm columns,
// a k-sparse ground truth, and measurements b = Ax (+ optional noise sigma).
func sparseProblem(seed int64, m, n, k int, sigma float64) (*mat.Mat, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := mat.New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = rng.NormFloat64()
			norm += col[i] * col[i]
		}
		norm = math.Sqrt(norm)
		for i := 0; i < m; i++ {
			a.Set(i, j, col[i]/norm)
		}
	}
	xTrue := make([]float64, n)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		v := 1 + rng.Float64()*2
		if rng.Intn(2) == 0 {
			v = -v
		}
		xTrue[perm[i]] = v
	}
	b := mat.MulVec(a, xTrue)
	for i := range b {
		b[i] += sigma * rng.NormFloat64()
	}
	return a, xTrue, b
}

func supportRecovered(xTrue, xHat []float64, thresh float64) bool {
	for i := range xTrue {
		isTrue := xTrue[i] != 0
		isHat := math.Abs(xHat[i]) > thresh
		if isTrue != isHat {
			return false
		}
	}
	return true
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ v, t, want, wantNonNeg float64 }{
		{5, 2, 3, 3},
		{-5, 2, -3, 0},
		{1, 2, 0, 0},
		{-1, 2, 0, 0},
		{0, 0, 0, 0},
		{2, 0, 2, 2},
	}
	for _, c := range cases {
		if got := prox(c.v, c.t, false); got != c.want {
			t.Errorf("prox(%v,%v,false) = %v, want %v", c.v, c.t, got, c.want)
		}
		if got := prox(c.v, c.t, true); got != c.wantNonNeg {
			t.Errorf("prox(%v,%v,true) = %v, want %v", c.v, c.t, got, c.wantNonNeg)
		}
	}
}

func TestSoftThresholdShrinksProperty(t *testing.T) {
	f := func(v, tRaw float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(tRaw) || math.IsInf(tRaw, 0) {
			return true
		}
		th := math.Abs(tRaw)
		got := prox(v, th, false)
		// Never increases magnitude and never flips sign.
		return math.Abs(got) <= math.Abs(v) && got*v >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBPDNNoisyRecovery(t *testing.T) {
	a, xTrue, b := sparseProblem(3, 50, 150, 6, 0.01)
	res, err := BPDN(a, b, 0.02, Options{MaxIter: 3000, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !supportRecovered(xTrue, res.X, 0.3) {
		t.Fatalf("support not recovered; max err %v", maxAbsDiff(xTrue, res.X))
	}
	if d := maxAbsDiff(xTrue, res.X); d > 0.3 {
		t.Fatalf("max coefficient error %v too large", d)
	}
}

func TestBPDNTallMatrixPath(t *testing.T) {
	// Exercise the n <= m branch (direct N×N factorization).
	a, xTrue, b := sparseProblem(4, 60, 40, 3, 0.005)
	res, err := BPDN(a, b, 0.01, Options{MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if !supportRecovered(xTrue, res.X, 0.3) {
		t.Fatal("support not recovered on tall system")
	}
}

func TestBPDNRejectsBadLambda(t *testing.T) {
	a, _, b := sparseProblem(5, 10, 20, 2, 0)
	if _, err := BPDN(a, b, 0, Options{}); err == nil {
		t.Fatal("expected error for lambda = 0")
	}
	if _, err := BPDN(a, b, -1, Options{}); err == nil {
		t.Fatal("expected error for negative lambda")
	}
}

func TestDimensionErrors(t *testing.T) {
	a := mat.New(4, 8)
	bad := make([]float64, 5)
	if _, err := BPDN(a, bad, 1, Options{}); err != ErrDimension {
		t.Fatalf("BPDN err = %v", err)
	}
	if _, err := OMP(a, bad, 2, 0); err != ErrDimension {
		t.Fatalf("OMP err = %v", err)
	}
}

// fistaRef minimizes ½‖Ax − b‖₂² + λ‖x‖₁ by accelerated proximal gradient for
// a fixed number of iterations, with step 1/‖A‖_F² (a bound on 1/λmax(AᵀA)).
// It shares nothing with BPDN but the objective, which makes it the
// cross-check TestFISTAAndBPDNAgree needs.
func fistaRef(a *mat.Mat, b []float64, lambda float64, iters int) []float64 {
	m, n := a.Dims()
	var frob float64
	for i := 0; i < m; i++ {
		for _, v := range a.RawRow(i) {
			frob += v * v
		}
	}
	step := 1 / frob
	x, y, xOld := make([]float64, n), make([]float64, n), make([]float64, n)
	tMom := 1.0
	for it := 0; it < iters; it++ {
		grad := mat.MulTVec(a, mat.SubVec(mat.MulVec(a, y), b))
		copy(xOld, x)
		for i := range x {
			x[i] = prox(y[i]-step*grad[i], step*lambda, false)
		}
		tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		for i := range y {
			y[i] = x[i] + (tMom-1)/tNext*(x[i]-xOld[i])
		}
		tMom = tNext
	}
	return x
}

func TestFISTAAndBPDNAgree(t *testing.T) {
	// Both optimize the same objective, so minimizers should match closely.
	a, _, b := sparseProblem(8, 40, 100, 4, 0.01)
	lambda := 0.05
	f := fistaRef(a, b, lambda, 20000)
	ad, err := BPDN(a, b, lambda, Options{MaxIter: 8000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(f, ad.X); d > 1e-3 {
		t.Fatalf("FISTA and BPDN minimizers differ by %v", d)
	}
}

func TestOMPExactRecovery(t *testing.T) {
	a, xTrue, b := sparseProblem(9, 40, 120, 5, 0)
	res, err := OMP(a, b, 5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xTrue, res.X); d > 1e-8 {
		t.Fatalf("OMP max error %v", d)
	}
	if res.Iterations != 5 {
		t.Fatalf("OMP used %d atoms, want 5", res.Iterations)
	}
}

func TestOMPStopsEarlyOnResidual(t *testing.T) {
	a, _, b := sparseProblem(10, 40, 120, 3, 0)
	res, err := OMP(a, b, 20, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 4 {
		t.Fatalf("OMP should stop near k=3 atoms, used %d", res.Iterations)
	}
	if !res.Converged {
		t.Fatal("OMP should report convergence via residual")
	}
}

func TestOMPRejectsBadK(t *testing.T) {
	a, _, b := sparseProblem(11, 10, 20, 2, 0)
	if _, err := OMP(a, b, 0, 0); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if _, err := OMP(a, b, 21, 0); err == nil {
		t.Fatal("expected error for k > n")
	}
}

func TestRecoveryDegradesGracefullyWithSparsity(t *testing.T) {
	// Property from CS theory: with fixed M, recovery succeeds for small k
	// and fails for k close to M. This guards the phase-transition behaviour
	// Fig. 8 depends on.
	recovered := func(k int) bool {
		a, xTrue, b := sparseProblem(int64(100+k), 30, 90, k, 0)
		// λ → 0 on noiseless data is the equality-constrained program.
		res, err := BPDN(a, b, 1e-3, Options{MaxIter: 5000, Tol: 1e-7})
		if err != nil {
			return false
		}
		return supportRecovered(xTrue, res.X, 0.5)
	}
	if !recovered(3) {
		t.Error("k=3 should be recoverable with M=30")
	}
	if recovered(28) {
		t.Error("k=28 should NOT be recoverable with M=30")
	}
}

func TestResultFieldsConsistent(t *testing.T) {
	a, _, b := sparseProblem(14, 20, 50, 3, 0)
	res, err := BPDN(a, b, 0.01, Options{MaxIter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-mat.Norm1(res.X)) > 1e-12 {
		t.Fatal("Objective != ‖x‖₁")
	}
	r := mat.SubVec(mat.MulVec(a, res.X), b)
	if math.Abs(res.Residual-mat.Norm2(r)) > 1e-12 {
		t.Fatal("Residual != ‖Ax−b‖₂")
	}
}
