// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every dataset, reordering and experiment in this repository must be
// bit-reproducible across runs and machines, so we avoid math/rand's
// global state and implement two well-known generators from scratch:
//
//   - SplitMix64: used for seeding and for cheap one-shot hashing.
//   - Xoshiro256++: the workhorse generator for dataset synthesis.
//
// Both are public-domain algorithms (Blackman & Vigna). The implementations
// here are intentionally minimal: no locking, value receivers avoided so a
// generator can be embedded and advanced in place.
package rng

import "math"

// SplitMix64 is a tiny 64-bit generator with a 64-bit state. It is mainly
// used to derive independent seeds for Xoshiro streams, and as a cheap
// stateless mixer (see Mix64).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality
// stateless 64-bit mixing function, useful for deterministic hashing of
// indices (e.g., deriving a per-vertex stream from a base seed).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a Xoshiro256++ generator. The zero value is not usable; construct
// with New.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Xoshiro256++ generator seeded from seed via SplitMix64, per
// the authors' recommendation.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of the xoshiro transition.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return r
}

// NewStream returns an independent generator for (seed, stream). Streams
// derived from the same seed but different stream indices are statistically
// independent, which lets parallel code draw from disjoint sequences.
func NewStream(seed, stream uint64) *Rand {
	return New(Mix64(seed) ^ Mix64(stream*0x9e3779b97f4a7c15+1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It is Uint64n: rejection on a modulo bound, so without modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Rejection sampling: draw until the value falls below the largest
	// multiple of n that fits in 64 bits, then reduce it modulo n.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Pareto returns a sample from a Pareto distribution with minimum xm and
// shape alpha. Power-law degree sequences use this: P(X > x) = (xm/x)^alpha.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	// Invert the CDF; 1-u is uniform in (0,1] so the pow never sees 0.
	return xm / math.Pow(1-u, 1/alpha)
}

// Exp returns an exponentially distributed sample with rate lambda.
func (r *Rand) Exp(lambda float64) float64 {
	u := r.Float64()
	return -math.Log(1-u) / lambda
}

// Zipf samples a rank in [0, n) with probability proportional to
// 1/(rank+1)^s, using the inverse-CDF approximation of the continuous
// bounded Pareto. It is accurate enough for workload synthesis and O(1)
// per sample (no precomputed tables), which matters when drawing hundreds
// of millions of edges.
func (r *Rand) Zipf(n int, s float64) int {
	return r.ZipfOf(NewZipfDist(n, s))
}

// ZipfDist is the part of a Zipf draw that depends on (n, s) alone. A
// caller drawing many ranks from the same distribution builds it once; the
// draws are bit-identical to Zipf(n, s). A draw is one power b^(1/(1-s));
// when 1/(1-s) is an integer, as it is for s = 0.95, 1.05 and 1.10, it
// costs a few multiplies instead of a math.Pow (see floorIntPow).
type ZipfDist struct {
	n      int
	span   float64 // (n+1)^(1-s) - 1
	invExp float64 // 1/(1-s)
	intExp int     // invExp rounded, when it is within 1e-12 of an integer 0 < |k| <= 64; else 0
	eps    float64 // relative distance within which the intExp power and math.Pow's agree, with margin
}

// Bounds of the integer-exponent fast path: how near 1/(1-s) must lie to
// an integer, and how large that integer may be (which bounds the number
// of roundings in the power by squaring).
const (
	intExpTol = 1e-12
	intExpMax = 64
)

// NewZipfDist precomputes the distribution Zipf(n, s) samples.
func NewZipfDist(n int, s float64) ZipfDist {
	if n <= 1 {
		return ZipfDist{n: n}
	}
	if s == 1 {
		s = 1.0000001 // avoid the harmonic singularity
	}
	oneMinusS := 1 - s
	d := ZipfDist{n: n, span: math.Pow(float64(n)+1, oneMinusS) - 1, invExp: 1 / oneMinusS}
	k := math.Round(d.invExp)
	if k == 0 || math.Abs(k) > intExpMax || math.Abs(d.invExp-k) > intExpTol {
		return d
	}
	// The fast path computes f = b^k and math.Pow computes P = b^invExp;
	// both are within a few roundings of their exact values, and the exact
	// values differ by the exponent mismatch. With u = 2^-53 and x = P in
	// [1, n+1), to first order:
	//   - f: b^|k| by squaring rounds |k|-1 times counted with multiplicity
	//     (a rounding in b^2 is raised to the |k|/2, and so on), plus one
	//     reciprocal when k < 0: at most |k|·u.
	//   - P: math.Pow squares for the same integer part with a non-unit
	//     accumulator, multiplies in Exp(yf·Log(b)) for the fraction yf
	//     (|yf| <= 1e-12, so within 2u) and takes one reciprocal: at most
	//     (|k|+3)·u.
	//   - b^k against b^invExp: |invExp-k|·|ln b| = |invExp-k|·ln(x)/|invExp|,
	//     at most |invExp-k|·ln(n+1)/|invExp|.
	// So |f - P| <= ((2|k|+3)·u + mismatch)·f. eps is that sum plus one u
	// (for computing f·eps itself), times a margin of 10^4: if f·(1-eps)
	// and f·(1+eps) have the same floor, P has it too.
	d.intExp = int(k)
	d.eps = 1e4 * (float64(2*abs(d.intExp)+4)*0x1p-53 + math.Abs(d.invExp-k)*math.Log(float64(n)+1)/math.Abs(d.invExp))
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ZipfOf samples a rank of d. Like Zipf, it draws nothing when the
// distribution has at most one rank.
func (r *Rand) ZipfOf(d ZipfDist) int {
	if d.n <= 1 {
		return 0
	}
	return d.rank(r.Float64())
}

// rank maps u in [0, 1) to a rank: the continuous bounded Pareto on
// [1, n+1), its CDF inverted at u, floored and shifted to [0, n).
func (d ZipfDist) rank(u float64) int {
	b := u*d.span + 1
	x, ok := d.floorIntPow(b)
	if !ok {
		x = int(math.Pow(b, d.invExp))
	}
	return min(max(x-1, 0), d.n-1)
}

// floorIntPow returns floor(math.Pow(b, d.invExp)) computed as b^intExp,
// and false when d has no integer exponent or the power lies too near an
// integer to be sure of its floor — then only math.Pow decides.
func (d ZipfDist) floorIntPow(b float64) (int, bool) {
	if d.intExp == 0 {
		return 0, false
	}
	f := 1.0
	for e := abs(d.intExp); e > 0; e >>= 1 {
		if e&1 == 1 {
			f *= b
		}
		b *= b
	}
	if d.intExp < 0 {
		f = 1 / f
	}
	slack := f * d.eps
	lo, hi := int(f-slack), int(f+slack)
	return lo, lo == hi
}

// Perm returns a uniformly random permutation of [0, n) as a slice,
// generated with the inside-out Fisher-Yates shuffle.
func (r *Rand) Perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = uint32(i)
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
