package mat

import "math"

// Vector helpers. Vectors are plain []float64 so they compose with the rest
// of the codebase without wrapper types.

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled summation to avoid overflow on pathological inputs.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the ℓ1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-abs norm of x.
func NormInf(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// SubVec returns x−y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
