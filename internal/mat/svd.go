package mat

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ, where U is
// m×r, V is n×r, and S holds the r = min(m,n) singular values in descending
// order.
type SVD struct {
	U *Mat
	S []float64
	V *Mat
}

// maxJacobiSweeps bounds the one-sided Jacobi iteration. Convergence is
// typically reached in well under 30 sweeps for matrices of the sizes used in
// CrowdWiFi.
const maxJacobiSweeps = 60

// FactorizeSVD computes the thin SVD of a via one-sided Jacobi rotations.
// The method orthogonalizes the columns of a working copy of A by a sequence
// of plane rotations accumulated into V; the singular values are the final
// column norms, and U the normalized columns. It wants at least as many rows
// as columns, so a wide A is factored as its transpose with U and V swapped.
//
// The working copy and V are held transposed, one column per row, so a (p,q)
// rotation walks two contiguous slices; for a wide A that copy is A's rows as
// they lie. All state is local to the call.
func FactorizeSVD(a *Mat) *SVD {
	wide := a.rows < a.cols
	var wt *Mat // row j is column j of the matrix being orthogonalized
	if wide {
		wt = a.Clone()
	} else {
		wt = a.T()
	}
	n, m := wt.rows, wt.cols // n columns of length m ≥ n
	vt := Identity(n)

	// Convergence threshold on normalized off-diagonal inner products.
	const eps = 1e-13
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			wp := wt.RawRow(p)
			for q := p + 1; q < n; q++ {
				wq := wt.RawRow(q)
				// Gram entries for the (p,q) column pair.
				var app, aqq, apq float64
				for i, cp := range wp {
					cq := wq[i]
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
				rotate(wp, wq, c, s)
				rotate(vt.RawRow(p), vt.RawRow(q), c, s)
			}
		}
		if converged {
			break
		}
	}

	// Singular values are the column norms.
	sv := make([]float64, n)
	for j := range sv {
		var norm float64
		for _, w := range wt.RawRow(j) {
			norm += w * w
		}
		sv[j] = math.Sqrt(norm)
	}

	// Sort them in descending order, writing U (normalized columns) and V out
	// row-major in that order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sv[idx[a]] > sv[idx[b]] })
	sortedS := make([]float64, n)
	u := New(m, n)
	v := New(n, n)
	for newJ, oldJ := range idx {
		sortedS[newJ] = sv[oldJ]
		if sv[oldJ] > 0 {
			inv := 1 / sv[oldJ]
			for i, w := range wt.RawRow(oldJ) {
				u.data[i*n+newJ] = w * inv
			}
		}
		for i, x := range vt.RawRow(oldJ) {
			v.data[i*n+newJ] = x
		}
	}
	if wide {
		return &SVD{U: v, S: sortedS, V: u}
	}
	return &SVD{U: u, S: sortedS, V: v}
}

// rotate applies the plane rotation (c, s) to the vector pair (p, q) in place.
func rotate(p, q []float64, c, s float64) {
	for i, cp := range p {
		cq := q[i]
		p[i] = c*cp - s*cq
		q[i] = s*cp + c*cq
	}
}
