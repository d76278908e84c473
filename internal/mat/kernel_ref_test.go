package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The kernels the vehicle's round runs were rewritten for speed under one
// contract: the same floating-point operations in the same order, so every
// answer downstream is the same bits. The loops they replaced live on here as
// the references.

// factorizeSVDRef is FactorizeSVD as it was: column rotations striding a
// row-major working matrix, a wide input transposed on the way in and out.
func factorizeSVDRef(a *Mat) *SVD {
	m, n := a.rows, a.cols
	if m < n {
		// One-sided Jacobi wants m ≥ n; factor the transpose and swap.
		s := factorizeSVDRef(a.T())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	w := a.Clone() // columns are rotated toward mutual orthogonality
	v := Identity(n)

	// Convergence threshold on normalized off-diagonal inner products.
	const eps = 1e-13
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Gram entries for the (p,q) column pair.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					cp := w.data[i*n+p]
					cq := w.data[i*n+q]
					app += cp * cp
					aqq += cq * cq
					apq += cp * cq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				converged = false
				// Jacobi rotation zeroing the off-diagonal Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					cp := w.data[i*n+p]
					cq := w.data[i*n+q]
					w.data[i*n+p] = c*cp - s*cq
					w.data[i*n+q] = s*cp + c*cq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values (column norms) and normalize U.
	sv := make([]float64, n)
	u := New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.data[i*n+j] * w.data[i*n+j]
		}
		norm = math.Sqrt(norm)
		sv[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				u.data[i*n+j] = w.data[i*n+j] * inv
			}
		}
	}

	// Sort singular values in descending order, permuting U and V columns.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sv[idx[a]] > sv[idx[b]] })
	sortedS := make([]float64, n)
	sortedU := New(m, n)
	sortedV := New(n, n)
	for newJ, oldJ := range idx {
		sortedS[newJ] = sv[oldJ]
		for i := 0; i < m; i++ {
			sortedU.data[i*n+newJ] = u.data[i*n+oldJ]
		}
		for i := 0; i < n; i++ {
			sortedV.data[i*n+newJ] = v.data[i*n+oldJ]
		}
	}
	return &SVD{U: sortedU, S: sortedS, V: sortedV}
}

// mulVecRef, mulTVecRef and solveVecRef are the allocating kernels as they
// were before the into-buffer forms took over their loops.
func mulVecRef(a *Mat, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func mulTVecRef(a *Mat, x []float64) []float64 {
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

func solveVecRef(c *Cholesky, b []float64) []float64 {
	n := c.n
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.data[j*n+i] * x[j]
		}
		x[i] = s / c.l.data[i*n+i]
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// pathLossMat is a sensing matrix of the shape and conditioning the vehicle
// factors: rows are readings along a road, columns a cols×rowsOfGrid lattice
// of 20 m cells, entries a log-distance path loss.
func pathLossMat(readings, gridCols, gridRows int) *Mat {
	a := New(readings, gridCols*gridRows)
	for i := 0; i < readings; i++ {
		x, y := 8+11*float64(i), 20+3*float64(i%5)
		row := a.RawRow(i)
		for j := range row {
			d := math.Hypot(x-20*float64(j%gridCols), y-20*float64(j/gridCols))
			row[j] = -40 - 30*math.Log10(math.Max(d, 1))
		}
	}
	return a
}

func TestFactorizeSVDMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rankDeficient := randMat(rng, 12, 5)
	for i := 0; i < 12; i++ {
		rankDeficient.Set(i, 4, 2*rankDeficient.At(i, 1)-rankDeficient.At(i, 3))
	}
	zeroCol := randMat(rng, 9, 6)
	for i := 0; i < 9; i++ {
		zeroCol.Set(i, 2, 0)
	}
	cases := map[string]*Mat{
		"wide 24x176 path loss": pathLossMat(24, 16, 11),
		"wide 3x40":             randMat(rng, 3, 40),
		"wide 1x7":              randMat(rng, 1, 7),
		"tall 40x9":             randMat(rng, 40, 9),
		"square 17x17":          randMat(rng, 17, 17),
		"rank deficient":        rankDeficient,
		"rank deficient wide":   rankDeficient.T(),
		"zero column":           zeroCol,
		"zero row":              zeroCol.T(),
		"all zero":              New(4, 6),
	}
	for name, a := range cases {
		before := a.Clone()
		got, want := FactorizeSVD(a), factorizeSVDRef(a)
		sameBits(t, name+": input", a.data, before.data)
		sameBits(t, name+": S", got.S, want.S)
		for _, f := range []struct {
			what      string
			got, want *Mat
		}{{"U", got.U, want.U}, {"V", got.V, want.V}} {
			if f.got.rows != f.want.rows || f.got.cols != f.want.cols {
				t.Fatalf("%s: %s is %dx%d, want %dx%d", name, f.what, f.got.rows, f.got.cols, f.want.rows, f.want.cols)
			}
			sameBits(t, name+": "+f.what, f.got.data, f.want.data)
		}
	}
}

func TestIntoBufferKernelsMatchReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dirty := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for _, dims := range [][2]int{{24, 176}, {40, 9}, {1, 5}, {6, 6}} {
		a := randMat(rng, dims[0], dims[1])
		x := randMat(rng, 1, dims[1]).data
		y := randMat(rng, 1, dims[0]).data
		y[0] = 0 // MulTVec skips a zero entry's row

		sameBits(t, "MulVec", MulVec(a, x), mulVecRef(a, x))
		sameBits(t, "MulVecTo", MulVecTo(dirty(dims[0]), a, x), mulVecRef(a, x))
		sameBits(t, "MulTVec", MulTVec(a, y), mulTVecRef(a, y))
		sameBits(t, "MulTVecTo", MulTVecTo(dirty(dims[1]), a, y), mulTVecRef(a, y))

		g := AAt(a)
		for i := 0; i < dims[0]; i++ {
			g.Set(i, i, g.At(i, i)+1)
		}
		chol, err := FactorizeCholesky(g)
		if err != nil {
			t.Fatal(err)
		}
		want := solveVecRef(chol, y)
		sameBits(t, "SolveVecTo", chol.SolveVecTo(dirty(dims[0]), y), want)
		inPlace := CloneVec(y)
		sameBits(t, "SolveVecTo in place", chol.SolveVecTo(inPlace, inPlace), want)
	}
}

// TestMulVecToMatchesRowAtATime holds MulVecTo to the one-row-at-a-time dot
// product for every row count a group solve meets after Proposition 1 and
// then some, on rows that hold signed zeros, NaNs, infinities and subnormals:
// each row is summed from +0 in ascending column order.
func TestMulVecToMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1050}
	for m := 1; m <= 5; m++ {
		for _, n := range []int{1, 7, 187} {
			a := randMat(rng, m, n)
			x := randMat(rng, 1, n).data
			for i := 0; i < m; i++ {
				// Row i gets a different mix, so rows summed side by side
				// disagree in where their special values sit.
				for j := i; j < n; j += 3 + i {
					a.Set(i, j, special[(i+j)%len(special)])
				}
			}
			x[n/2] = math.Copysign(0, -1)
			if n > 2 {
				x[1] = 0x1p-1070
			}
			sameBits(t, fmt.Sprintf("MulVecTo %dx%d", m, n), MulVecTo(make([]float64, m), a, x), mulVecRef(a, x))
		}
	}
	// A row of -0 products sums to +0, as the reference does.
	a := NewFromData(2, 2, []float64{math.Copysign(0, -1), math.Copysign(0, -1), 1, -1})
	sameBits(t, "MulVecTo -0 row", MulVecTo(make([]float64, 2), a, []float64{1, 1}), mulVecRef(a, []float64{1, 1}))
}

// TestMulTVecToMatchesRowAtATime holds MulTVecTo, which adds up to four rows
// per pass, to adding one row per pass, for 1 to 9 rows (two blocks of four
// and a remainder) with zeros in x at every position mod 4 and special values
// in both operands.
func TestMulTVecToMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	special := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1030}
	for m := 1; m <= 9; m++ {
		for skip := 0; skip < 5; skip++ {
			a := randMat(rng, m, 29)
			x := randMat(rng, 1, m).data
			for i := 0; i < m; i++ {
				for j := i; j < 29; j += 4 + i {
					a.Set(i, j, special[(i+j)%len(special)])
				}
				if i%4 == skip {
					x[i] = 0 // a row MulTVecTo skips
				}
			}
			if m > 2 {
				x[2] = math.Copysign(0, -1) // skipped too
			}
			sameBits(t, fmt.Sprintf("MulTVecTo %d rows, skipping row %d mod 4", m, skip),
				MulTVecTo(make([]float64, 29), a, x), mulTVecRef(a, x))
		}
	}
	// Terms that cancel leave +0, and a row of -0 terms adds to +0.
	a := NewFromData(3, 2, []float64{1, math.Copysign(0, -1), -1, math.Copysign(0, -1), 2, 3})
	x := []float64{1, 1, 0}
	sameBits(t, "MulTVecTo cancelling rows", MulTVecTo(make([]float64, 2), a, x), mulTVecRef(a, x))
}

func TestIntoBufferKernelsRejectWrongLengths(t *testing.T) {
	a := New(2, 3)
	chol, err := FactorizeCholesky(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"MulVecTo":   func() { MulVecTo(make([]float64, 3), a, make([]float64, 3)) },
		"MulTVecTo":  func() { MulTVecTo(make([]float64, 2), a, make([]float64, 2)) },
		"SolveVecTo": func() { chol.SolveVecTo(make([]float64, 3), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic on a wrong-length buffer", name)
				}
			}()
			f()
		}()
	}
}

var svdSink *SVD

// BenchmarkFactorizeSVD24x176 factors a group-sized wide matrix: 24 readings
// over a 16×11 grid of 20 m cells. The vehicle no longer factors this shape
// (Proposition 1 works from the 24×24 Gram matrix); the MDS baseline and the
// bench's kernel trace still call FactorizeSVD.
func BenchmarkFactorizeSVD24x176(b *testing.B) {
	a := pathLossMat(24, 16, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svdSink = FactorizeSVD(a)
	}
}
