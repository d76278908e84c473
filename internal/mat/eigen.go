package mat

import (
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: A = V·diag(λ)·Vᵀ
// with eigenvalues in descending order and orthonormal eigenvectors as the
// columns of V.
type Eigen struct {
	Values  []float64
	Vectors *Mat
}

// maxEigenSweeps bounds the cyclic Jacobi eigenvalue iteration.
const maxEigenSweeps = 100

// FactorizeSymEigen computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. The input is not checked for symmetry; only
// the upper triangle is referenced when choosing rotations, and the matrix is
// symmetrized internally.
func FactorizeSymEigen(a *Mat) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	n := a.rows
	// Symmetrize to guard against small asymmetries from upstream arithmetic.
	w := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.data[i*n+j] = 0.5 * (a.data[i*n+j] + a.data[j*n+i])
		}
	}
	v := Identity(n)

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += w.data[i*n+j] * w.data[i*n+j]
			}
		}
		return math.Sqrt(2 * s)
	}
	norm := w.FrobeniusNorm()
	if norm == 0 {
		return &Eigen{Values: make([]float64, n), Vectors: v}, nil
	}
	const tol = 1e-13
	for sweep := 0; sweep < maxEigenSweeps && offDiag() > tol*norm; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.data[p*n+q]
				if math.Abs(apq) <= tol*norm/float64(n) {
					continue
				}
				app := w.data[p*n+p]
				aqq := w.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation on both sides: W ← JᵀWJ.
				for k := 0; k < n; k++ {
					wkp := w.data[k*n+p]
					wkq := w.data[k*n+q]
					w.data[k*n+p] = c*wkp - s*wkq
					w.data[k*n+q] = s*wkp + c*wkq
				}
				for k := 0; k < n; k++ {
					wpk := w.data[p*n+k]
					wqk := w.data[q*n+k]
					w.data[p*n+k] = c*wpk - s*wqk
					w.data[q*n+k] = s*wpk + c*wqk
				}
				for k := 0; k < n; k++ {
					vkp := v.data[k*n+p]
					vkq := v.data[k*n+q]
					v.data[k*n+p] = c*vkp - s*vkq
					v.data[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.data[i*n+i]
	}
	// Sort descending by eigenvalue, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	outVals := make([]float64, n)
	outVecs := New(n, n)
	for newJ, oldJ := range idx {
		outVals[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			outVecs.data[i*n+newJ] = v.data[i*n+oldJ]
		}
	}
	return &Eigen{Values: outVals, Vectors: outVecs}, nil
}
