package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const testTol = 1e-9

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = (%d,%d), want (2,3)", r, c)
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 5, 3)
	if !equalApprox(a, a.T().T(), 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !equalApprox(got, want, testTol) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulVsMulVecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		ab := Mul(a, b)
		for j := 0; j < n; j++ {
			bj := make([]float64, k)
			for i := range bj {
				bj[i] = b.At(i, j)
			}
			col := MulVec(a, bj)
			for i := 0; i < m; i++ {
				if math.Abs(col[i]-ab.At(i, j)) > testTol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTVecMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 7, 4)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := MulTVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > testTol {
			t.Fatalf("MulTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAtAAndAAt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 6, 4)
	if !equalApprox(AtA(a), Mul(a.T(), a), testTol) {
		t.Fatal("AtA != AᵀA")
	}
	if !equalApprox(AAt(a), Mul(a, a.T()), testTol) {
		t.Fatal("AAt != AAᵀ")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {10, 6}} {
		a := randMat(rng, dims[0], dims[1])
		f, err := FactorizeQR(a)
		if err != nil {
			t.Fatal(err)
		}
		if !equalApprox(Mul(f.q, f.r), a, 1e-9) {
			t.Fatalf("QR != A for dims %v", dims)
		}
		// Q columns must be orthonormal.
		qtq := Mul(f.q.T(), f.q)
		if !equalApprox(qtq, Identity(dims[1]), 1e-9) {
			t.Fatalf("QᵀQ != I for dims %v", dims)
		}
	}
}

func TestQRWideRejected(t *testing.T) {
	if _, err := FactorizeQR(New(2, 5)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRLeastSquares(t *testing.T) {
	// Overdetermined consistent system: exact solution should be recovered.
	a := NewFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	want := []float64{2, -3}
	b := MulVec(a, want)
	f, err := FactorizeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b0 := randMat(rng, 6, 6)
	a := AtA(b0) // SPD (with very high probability)
	for i := 0; i < 6; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !equalApprox(Mul(c.l, c.l.T()), a, 1e-8) {
		t.Fatal("LLᵀ != A")
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x := c.SolveVecTo(make([]float64, len(b)), b)
	ax := MulVec(a, x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("Ax = %v, want %v", ax, b)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := FactorizeCholesky(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][2]int{{5, 5}, {8, 3}, {3, 8}, {12, 7}} {
		a := randMat(rng, dims[0], dims[1])
		s := FactorizeSVD(a)
		// Rebuild A = U diag(S) Vᵀ.
		us := s.U.Clone()
		for j := 0; j < len(s.S); j++ {
			for i := 0; i < us.Rows(); i++ {
				us.Set(i, j, us.At(i, j)*s.S[j])
			}
		}
		if !equalApprox(Mul(us, s.V.T()), a, 1e-8) {
			t.Fatalf("SVD reconstruction failed for dims %v", dims)
		}
		// Singular values descending and non-negative.
		for i := 1; i < len(s.S); i++ {
			if s.S[i] > s.S[i-1]+testTol || s.S[i] < 0 {
				t.Fatalf("singular values not sorted/non-negative: %v", s.S)
			}
		}
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, 9, 4)
	s := FactorizeSVD(a)
	if !equalApprox(Mul(s.U.T(), s.U), Identity(4), 1e-9) {
		t.Fatal("UᵀU != I")
	}
	if !equalApprox(Mul(s.V.T(), s.V), Identity(4), 1e-9) {
		t.Fatal("VᵀV != I")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := New(5, 4)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	s := FactorizeSVD(a)
	if r := s.Rank(0); r != 1 {
		t.Fatalf("Rank = %d, want 1", r)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randMat(rng, 6, 6)
	a := AtA(b)
	e, err := FactorizeSymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild A = V diag(λ) Vᵀ.
	vd := e.Vectors.Clone()
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			vd.Set(i, j, vd.At(i, j)*e.Values[j])
		}
	}
	if !equalApprox(Mul(vd, e.Vectors.T()), a, 1e-8) {
		t.Fatal("eigendecomposition reconstruction failed")
	}
	for i := 1; i < 6; i++ {
		if e.Values[i] > e.Values[i-1]+testTol {
			t.Fatalf("eigenvalues not sorted: %v", e.Values)
		}
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v, want 5", Norm2(x))
	}
	if Norm1(x) != 7 {
		t.Fatalf("Norm1 = %v, want 7", Norm1(x))
	}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %v, want 4", NormInf(x))
	}
	if y := CloneVec(x); y[0] != 3 || y[1] != -4 || &y[0] == &x[0] {
		t.Fatalf("CloneVec = %v", y)
	}
	if got := SubVec([]float64{1, 2}, []float64{3, 4}); got[0] != -2 || got[1] != -2 {
		t.Fatalf("SubVec = %v", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	if got := Norm2(x); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e190 {
		t.Fatalf("Norm2 overflow handling failed: %v", got)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := a[:n], b[:n]
		for _, v := range append(CloneVec(x), y...) {
			// Skip non-finite and overflow-prone draws; the property is about
			// geometry, not float saturation.
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		xy := CloneVec(x)
		for i := range xy {
			xy[i] += y[i]
		}
		sum := Norm2(xy)
		return sum <= Norm2(x)+Norm2(y)+1e-9*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDConsistentWithPinvSolve(t *testing.T) {
	// For a tall full-rank system, pinv(A)·b = V·Σ⁻¹·Uᵀ·b must equal the
	// least-squares solution from QR.
	rng := rand.New(rand.NewSource(15))
	a := randMat(rng, 10, 4)
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	svd := FactorizeSVD(a)
	utb := MulTVec(svd.U, b)
	for k := range utb {
		utb[k] /= svd.S[k]
	}
	xPinv := MulVec(svd.V, utb)
	f, err := FactorizeQR(a)
	if err != nil {
		t.Fatal(err)
	}
	xQR, err := f.SolveLeastSquares(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xPinv {
		if math.Abs(xPinv[i]-xQR[i]) > 1e-8 {
			t.Fatalf("pinv solve %v != QR solve %v", xPinv, xQR)
		}
	}
}

// NewFromRows builds a matrix from row slices. All rows must have equal length.
func NewFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty row set")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// equalApprox reports whether a and b have the same shape and all entries
// within tol of each other.
func equalApprox(a, b *Mat, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
