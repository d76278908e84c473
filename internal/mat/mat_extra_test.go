package mat

import (
	"strings"
	"testing"
)

func TestNewFromData(t *testing.T) {
	m := NewFromData(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewFromData(2, 2, []float64{1})
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestRawRowAliases(t *testing.T) {
	m := New(2, 3)
	row := m.RawRow(1)
	row[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("RawRow must alias the backing store")
	}
}

func TestString(t *testing.T) {
	m := NewFromData(2, 2, []float64{1, 2, 3, 4})
	s := m.String()
	if !strings.HasPrefix(s, "2x2[") || !strings.Contains(s, "; ") {
		t.Fatalf("String = %q", s)
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if EqualApprox(New(2, 2), New(2, 3), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func TestAccessorPanics(t *testing.T) {
	m := New(2, 2)
	cases := []func(){
		func() { m.At(2, 0) },
		func() { m.Set(0, -1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := New(2, 3)
	cases := []func(){
		func() { Mul(a, New(2, 2)) },
		func() { MulVec(a, []float64{1}) },
		func() { MulTVec(a, []float64{1}) },
		func() { SubVec([]float64{1}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCholeskySolveVecPanicsOnBadLength(t *testing.T) {
	c, err := FactorizeCholesky(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SolveVecTo(make([]float64, 3), []float64{1})
}

func TestQRLeastSquaresWrongLength(t *testing.T) {
	f, err := FactorizeQR(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveLeastSquares([]float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEigenNonSquare(t *testing.T) {
	if _, err := FactorizeSymEigen(New(2, 3)); err != ErrShape {
		t.Fatalf("err = %v", err)
	}
}

func TestEigenZeroMatrix(t *testing.T) {
	e, err := FactorizeSymEigen(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Fatalf("eigenvalues of zero matrix = %v", e.Values)
		}
	}
}
