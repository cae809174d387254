// Package rng provides small, fast, deterministic pseudo-random number
// generators whose output is stable across Go releases and platforms.
//
// The DNA storage pipeline relies on seeded randomness in several places
// where the paper requires exact reproducibility from a stored seed alone
// (Section 4.4: "we do not need to store the tree; we only need to remember
// the seed used for the randomization of its construction"). The standard
// library's math/rand does not guarantee stream stability across versions,
// so this package implements splitmix64 (for seeding) and xoshiro256**
// (for bulk generation) directly.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64

	// Box-Muller spare value for NormFloat64.
	haveSpare bool
	spare     float64
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single 64-bit seed into the 256-bit xoshiro state, as
// recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Two Sources
// constructed with the same seed produce identical streams.
func New(seed uint64) *Source {
	s := NewState(seed)
	return &s
}

// NewState is New returning the Source by value, for hot paths that
// want a stack-allocated short-lived generator. The stream is identical
// to New's for the same seed.
func NewState(seed uint64) Source {
	var sm = seed
	var s Source
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	return s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded values.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo, tHi := t&mask, t>>32
	t = aLo*bHi + tLo
	lo |= t << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. It consumes two stream values per pair of outputs.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u, v float64
	for {
		u = s.Float64()
		if u > 0 {
			break
		}
	}
	v = s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	s.spare = r * math.Sin(2*math.Pi*v)
	s.haveSpare = true
	return r * math.Cos(2*math.Pi*v)
}

// LogNormal returns a variate whose logarithm is normal with the given
// mean and standard deviation (of the underlying normal).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders n elements using the provided swap
// function, via Fisher-Yates.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns a uniform boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Fork derives an independent child generator from the current stream.
// Forking is used to give each subsystem (tree construction, payload
// randomization, channel noise, ...) its own stream so that adding draws in
// one subsystem does not perturb another.
func (s *Source) Fork() *Source { return New(s.Uint64()) }

// Binomial returns a binomial(n, p) variate. For large n it uses a normal
// approximation; otherwise it sums Bernoulli trials.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if float64(n)*p > 30 && float64(n)*(1-p) > 30 {
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		v := int(mean + sd*s.NormFloat64() + 0.5)
		if v < 0 {
			v = 0
		}
		if v > n {
			v = n
		}
		return v
	}
	k := 0
	for i := 0; i < n; i++ {
		if s.Float64() < p {
			k++
		}
	}
	return k
}
