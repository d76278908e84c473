package solve

import (
	"math"
	"testing"

	"crowdwifi/internal/mat"
)

// TestBPDNKKTOptimality verifies the subgradient optimality conditions of
// the LASSO minimizer returned by ADMM: with g = Aᵀ(Ax − b),
//
//	x_j > 0 ⇒ g_j ≈ −λ;  x_j < 0 ⇒ g_j ≈ +λ;  x_j = 0 ⇒ |g_j| ≤ λ(1+ε).
func TestBPDNKKTOptimality(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		a, _, b := sparseProblem(seed, 40, 100, 4, 0.01)
		lambda := 0.05
		res, err := BPDN(a, b, lambda, Options{MaxIter: 6000, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		grad := mat.MulTVec(a, mat.SubVec(mat.MulVec(a, res.X), b))
		const tol = 1e-3
		for j, x := range res.X {
			g := grad[j]
			switch {
			case x > 1e-8:
				if math.Abs(g+lambda) > tol {
					t.Fatalf("seed %d: active + coord %d: grad %v, want ≈ %v", seed, j, g, -lambda)
				}
			case x < -1e-8:
				if math.Abs(g-lambda) > tol {
					t.Fatalf("seed %d: active − coord %d: grad %v, want ≈ %v", seed, j, g, lambda)
				}
			default:
				if math.Abs(g) > lambda+tol {
					t.Fatalf("seed %d: inactive coord %d: |grad| %v > λ %v", seed, j, math.Abs(g), lambda)
				}
			}
		}
	}
}

// TestNonNegativeBPDNRespectsConstraint checks that the non-negative variant
// never returns negative coordinates and still satisfies the one-sided KKT
// conditions (g_j ≥ −λ at zero coordinates, g_j ≈ −λ on the support).
func TestNonNegativeBPDNRespectsConstraint(t *testing.T) {
	a, xTrue, b := sparseProblem(31, 40, 100, 4, 0.01)
	// Force the ground truth non-negative so recovery is meaningful.
	for i, v := range xTrue {
		if v < 0 {
			xTrue[i] = -v
		}
	}
	b = mat.MulVec(a, xTrue)
	lambda := 0.05
	res, err := BPDN(a, b, lambda, Options{MaxIter: 6000, Tol: 1e-10, NonNegative: true})
	if err != nil {
		t.Fatal(err)
	}
	grad := mat.MulTVec(a, mat.SubVec(mat.MulVec(a, res.X), b))
	for j, x := range res.X {
		if x < 0 {
			t.Fatalf("coordinate %d is negative: %v", j, x)
		}
		if x > 1e-8 && math.Abs(grad[j]+lambda) > 1e-3 {
			t.Fatalf("active coord %d: grad %v, want ≈ %v", j, grad[j], -lambda)
		}
		if x <= 1e-8 && grad[j] < -lambda-1e-3 {
			t.Fatalf("inactive coord %d: grad %v below −λ", j, grad[j])
		}
	}
	if !supportRecovered(xTrue, res.X, 0.3) {
		t.Fatal("non-negative BPDN failed to recover the support")
	}
}

// TestBPDNLambdaPathMonotone: larger λ can only shrink the ℓ1 norm of the
// minimizer.
func TestBPDNLambdaPathMonotone(t *testing.T) {
	a, _, b := sparseProblem(33, 30, 80, 3, 0.02)
	prev := math.Inf(1)
	for _, lambda := range []float64{0.01, 0.05, 0.2, 1.0} {
		res, err := BPDN(a, b, lambda, Options{MaxIter: 4000, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		l1 := mat.Norm1(res.X)
		if l1 > prev+1e-6 {
			t.Fatalf("ℓ1 norm increased along the λ path: %v → %v at λ=%v", prev, l1, lambda)
		}
		prev = l1
	}
	// Large enough λ must zero the solution entirely.
	atb := mat.MulTVec(a, b)
	res, err := BPDN(a, b, 1.01*mat.NormInf(atb), Options{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Norm1(res.X) > 1e-6 {
		t.Fatalf("λ > ‖Aᵀb‖∞ should zero the solution, got ‖x‖₁ = %v", mat.Norm1(res.X))
	}
}
