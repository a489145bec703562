// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used everywhere the simulator needs randomness: random cache
// replacement, CEASER key generation, and synthetic workload construction.
//
// The simulator must be reproducible run-to-run for a given seed, so all
// randomness flows through explicitly seeded xrand.Rand instances rather
// than global math/rand state.
package xrand

// Rand is a splitmix64-based pseudo-random generator. It is not safe for
// concurrent use; give each subsystem its own instance.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next value in the stream (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		// Mirrors math/rand: a non-positive bound is a programmer error.
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		// Mirrors math/rand: a zero bound is a programmer error.
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Hash64 deterministically mixes x into a pseudo-random 64-bit value without
// advancing any generator state. Synthetic programs use it to derive
// reproducible per-instance values from (pc, occurrence) pairs.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}
