// Package mat implements the dense linear algebra needed by CrowdWiFi:
// matrix/vector arithmetic, Cholesky and Householder QR factorizations,
// one-sided Jacobi SVD and the symmetric Jacobi eigendecomposition.
//
// The package is deliberately small and dependency-light (stdlib plus the
// internal/par worker pool). Matrices are dense, row-major, and sized for the
// paper's workloads (grids of at most a few thousand points); the
// implementations favour clarity and numerical robustness, with row-blocked
// parallel kernels for the three multiply-shaped hot spots (Mul, AtA, AAt)
// above a size cutoff.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"crowdwifi/internal/par"
)

// parMinFlops is the multiply-accumulate count below which the kernels stay
// serial: small windows (M ≲ 60 rows) must not pay goroutine spawn overhead.
const parMinFlops = 1 << 16

// useParallel reports whether a kernel of the given flop count should fan
// out, and the worker count to use. Parallel and serial paths are
// bit-identical: every output element is accumulated by exactly one goroutine
// in the same order as the serial loop.
func useParallel(flops int) (int, bool) {
	w := par.DefaultWorkers()
	return w, w > 1 && flops >= parMinFlops
}

// Mat is a dense, row-major matrix.
type Mat struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned when matrix dimensions are incompatible with the
// requested operation.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: non-positive dimensions %dx%d", rows, cols))
	}
	return &Mat{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewFromData wraps data (row-major, length rows*cols) in a matrix.
// The slice is used directly, not copied.
func NewFromData(rows, cols int, data []float64) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Mat{rows: rows, cols: cols, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Mat) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns row i as a sub-slice of the backing array (no copy).
// Mutating the returned slice mutates the matrix.
func (m *Mat) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Mul returns a×b. Above the size cutoff the output rows are computed on a
// worker pool; each row's accumulation order matches the serial loop, so the
// result is bit-identical regardless of worker count.
func Mul(a, b *Mat) *Mat {
	if a.cols != b.rows {
		panic(ErrShape)
	}
	out := New(a.rows, b.cols)
	if w, ok := useParallel(a.rows * a.cols * b.cols); ok {
		par.ForBlocks(a.rows, w, func(lo, hi int) { mulRows(out, a, b, lo, hi) })
	} else {
		mulRows(out, a, b, 0, a.rows)
	}
	return out
}

// mulRows computes output rows [lo, hi) of a×b.
func mulRows(out, a, b *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns a×x for a column vector x.
func MulVec(a *Mat, x []float64) []float64 {
	return MulVecTo(make([]float64, a.rows), a, x)
}

// MulVecTo writes a×x into dst (length a.Rows()) and returns it: MulVec for a
// caller that brings its own buffer, such as a solver's iteration loop. dst
// must not alias x.
func MulVecTo(dst []float64, a *Mat, x []float64) []float64 {
	if a.cols != len(x) || a.rows != len(dst) {
		panic(ErrShape)
	}
	for i := range dst {
		row := a.data[i*a.cols : (i+1)*a.cols]
		x := x[:len(row)]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulTVec returns aᵀ×x without forming the transpose.
func MulTVec(a *Mat, x []float64) []float64 {
	return MulTVecTo(make([]float64, a.cols), a, x)
}

// MulTVecTo writes aᵀ×x into dst (one entry per column of a, overwritten) and returns
// it. dst must not alias x.
func MulTVecTo(dst []float64, a *Mat, x []float64) []float64 {
	if a.rows != len(x) || a.cols != len(dst) {
		panic(ErrShape)
	}
	clear(dst)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		dst := dst[:len(row)]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
	return dst
}

// AtA returns aᵀa (cols×cols Gram matrix). Above the size cutoff the output
// rows are computed on a worker pool; each output element accumulates over
// the data rows in the same ascending order as the serial loop, so the
// result is bit-identical regardless of worker count.
func AtA(a *Mat) *Mat {
	out := New(a.cols, a.cols)
	if w, ok := useParallel(a.rows * a.cols * a.cols); ok {
		par.ForBlocks(a.cols, w, func(lo, hi int) { ataRows(out, a, lo, hi) })
	} else {
		ataRows(out, a, 0, a.cols)
	}
	return out
}

// ataRows computes output rows [lo, hi) of aᵀa. The i-ascending accumulation
// per element mirrors the row-streaming serial kernel exactly.
func ataRows(out, a *Mat, lo, hi int) {
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for p := lo; p < hi; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			orow := out.data[p*a.cols : (p+1)*a.cols]
			for q, vq := range row {
				orow[q] += vp * vq
			}
		}
	}
}

// AAt returns a·aᵀ (rows×rows Gram matrix). Above the size cutoff the upper
// triangle is computed row-blocked on a worker pool; each dot product is
// evaluated exactly as in the serial loop, so the result is bit-identical
// regardless of worker count.
func AAt(a *Mat) *Mat {
	out := New(a.rows, a.rows)
	if w, ok := useParallel(a.rows * a.rows * a.cols / 2); ok {
		par.ForBlocks(a.rows, w, func(lo, hi int) { aatRows(out, a, lo, hi) })
	} else {
		aatRows(out, a, 0, a.rows)
	}
	return out
}

// aatRows computes upper-triangle rows [lo, hi) of a·aᵀ and mirrors them.
// The mirrored element (j, i) is owned by row i's task, and j ≥ i ≥ hi-1
// lands in column range [lo, rows), so no two tasks write the same cell.
func aatRows(out, a *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := a.data[i*a.cols : (i+1)*a.cols]
		for j := i; j < a.rows; j++ {
			rj := a.data[j*a.cols : (j+1)*a.cols]
			var s float64
			for k := range ri {
				s += ri[k] * rj[k]
			}
			out.data[i*a.rows+j] = s
			out.data[j*a.rows+i] = s
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
