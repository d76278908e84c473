package mat

import "math"

// QR holds a Householder QR factorization A = QR for an m×n matrix with
// m ≥ n. Q is m×n with orthonormal columns (thin form); R is n×n upper
// triangular.
type QR struct {
	q *Mat
	r *Mat
}

// FactorizeQR computes the thin QR factorization of a (rows ≥ cols).
func FactorizeQR(a *Mat) (*QR, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, ErrShape
	}
	// Work matrix accumulates R in its upper triangle; Householder vectors
	// are applied to an explicit Q accumulator.
	work := a.Clone()
	qfull := Identity(m)
	v := make([]float64, m)
	for k := 0; k < n; k++ {
		// Build the Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += work.data[i*n+k] * work.data[i*n+k]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := -norm
		if work.data[k*n+k] < 0 {
			alpha = norm
		}
		for i := 0; i < k; i++ {
			v[i] = 0
		}
		v[k] = work.data[k*n+k] - alpha
		for i := k + 1; i < m; i++ {
			v[i] = work.data[i*n+k]
		}
		var vv float64
		for i := k; i < m; i++ {
			vv += v[i] * v[i]
		}
		if vv == 0 {
			continue
		}
		beta := 2 / vv
		// work ← (I − βvvᵀ)·work, columns k..n−1.
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i] * work.data[i*n+j]
			}
			s *= beta
			for i := k; i < m; i++ {
				work.data[i*n+j] -= s * v[i]
			}
		}
		// qfull ← qfull·(I − βvvᵀ).
		for i := 0; i < m; i++ {
			var s float64
			row := qfull.data[i*m : (i+1)*m]
			for l := k; l < m; l++ {
				s += row[l] * v[l]
			}
			s *= beta
			for l := k; l < m; l++ {
				row[l] -= s * v[l]
			}
		}
	}
	q := New(m, n)
	for i := 0; i < m; i++ {
		copy(q.data[i*n:(i+1)*n], qfull.data[i*m:i*m+n])
	}
	r := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.data[i*n+j] = work.data[i*n+j]
		}
	}
	return &QR{q: q, r: r}, nil
}

// SolveLeastSquares returns argmin_x ‖Ax − b‖₂ using the factorization.
// It returns ErrSingular when R has a (numerically) zero diagonal entry.
func (f *QR) SolveLeastSquares(b []float64) ([]float64, error) {
	m, n := f.q.rows, f.q.cols
	if len(b) != m {
		return nil, ErrShape
	}
	// x = R⁻¹ Qᵀ b.
	qtb := MulTVec(f.q, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		row := f.r.data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Cholesky holds the lower-triangular factor of a symmetric positive-definite
// matrix: A = LLᵀ.
type Cholesky struct {
	l *Mat
	n int
}

// FactorizeCholesky computes the Cholesky factorization of the symmetric
// positive-definite matrix a. It returns ErrSingular if a is not positive
// definite.
func FactorizeCholesky(a *Mat) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.data[i*n+j]
			li := l.data[i*n : i*n+j]
			lj := l.data[j*n : j*n+j]
			for k := range lj {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.data[i*n+i] = math.Sqrt(s)
			} else {
				l.data[i*n+j] = s / l.data[j*n+j]
			}
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// SolveVecTo solves Ax = b into dst (length n) and returns it. Both
// triangular solves run in dst, which may be b itself.
func (c *Cholesky) SolveVecTo(dst, b []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(ErrShape)
	}
	n := c.n
	// Ly = b, y in dst.
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	// Lᵀx = y, back to front: dst[i] is still y[i] when x[i] replaces it.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.data[j*n+i] * dst[j]
		}
		dst[i] = s / c.l.data[i*n+i]
	}
	return dst
}
