// Package rng provides a deterministic, splittable random number generator
// used by every simulator and randomized algorithm in CrowdWiFi.
//
// Reproducibility matters for the experiment harness: a figure regenerated
// twice from the same seed must print identical rows. The generator is a
// 64-bit SplitMix64/PCG-style mixer: tiny, fast, and with well-understood
// statistical quality for simulation workloads. Split derives independent
// child streams so subsystems (channel noise, trajectories, spammers) cannot
// perturb each other's draws when call orders change.
package rng

import "math"

// RNG is a deterministic pseudo-random generator. The zero value is NOT
// valid; construct with New.
type RNG struct {
	state uint64
	// gauss caches the second Box-Muller variate.
	gauss    float64
	hasGauss bool
}

const (
	splitmixGamma = 0x9E3779B97F4A7C15
	mixMul1       = 0xBF58476D1CE4E5B9
	mixMul2       = 0x94D049BB133111EB
)

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so that small seeds do not yield correlated first draws.
	r.Uint64()
	r.Uint64()
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent state and the label, and the parent
// advances exactly one step, so adding new Split call sites does not shift
// unrelated streams.
func (r *RNG) Split(label uint64) *RNG {
	s := r.Uint64()
	return New(mix64(s ^ mix64(label)))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixMul1
	z = (z ^ (z >> 27)) * mixMul2
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitmixGamma
	return mix64(r.state)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Rejection-free modulo bias is negligible for simulation n; use
	// multiply-shift reduction which is unbiased enough and fast.
	return int((uint64(n) * (r.Uint64() >> 32)) >> 32)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u1 float64
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	r.gauss = mag * math.Sin(2*math.Pi*u2)
	r.hasGauss = true
	return mag * math.Cos(2*math.Pi*u2)
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Shuffle randomly permutes the first n elements using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
