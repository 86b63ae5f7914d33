package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("SplitMix64 not deterministic at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the public-domain C implementation with seed 0.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("step %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMixStep(t *testing.T) {
	// Mix64(x) must equal the SplitMix64 output whose pre-increment state is x.
	for _, x := range []uint64{0, 1, 42, 1 << 40, math.MaxUint64} {
		s := &SplitMix64{state: x}
		if got, want := s.Next(), Mix64(x); got != want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", x, want, got)
		}
	}
}

func TestXoshiroDeterministicAndSeedSensitive(t *testing.T) {
	a, b := New(7), New(7)
	c := New(8)
	same, diff := true, false
	for i := 0; i < 1000; i++ {
		va, vb, vc := a.Uint64(), b.Uint64(), c.Uint64()
		if va != vb {
			same = false
		}
		if va != vc {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different sequences")
	}
	if !diff {
		t.Error("different seeds produced identical sequences")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(1, 0)
	b := NewStream(1, 1)
	collisions := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			collisions++
		}
	}
	if collisions > 2 {
		t.Errorf("streams look correlated: %d collisions in 1000 draws", collisions)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestParetoMinimumAndMean(t *testing.T) {
	r := New(9)
	const xm, alpha, draws = 2.0, 3.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto sample %v below minimum %v", v, xm)
		}
		sum += v
	}
	// E[X] = alpha*xm/(alpha-1) = 3 for these parameters.
	if mean := sum / draws; math.Abs(mean-3.0) > 0.1 {
		t.Errorf("Pareto mean %v, want ~3.0", mean)
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := New(13)
	const n, draws = 1000, 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := r.Zipf(n, 1.2)
		if k < 0 || k >= n {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("Zipf not monotonically skewed: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
}

func TestZipfDegenerate(t *testing.T) {
	r := New(1)
	if got := r.Zipf(1, 2.0); got != 0 {
		t.Errorf("Zipf(1) = %d, want 0", got)
	}
	if got := r.Zipf(0, 2.0); got != 0 {
		t.Errorf("Zipf(0) = %d, want 0", got)
	}
}

// powRank is the Zipf rank by the math.Pow formula alone: the reference
// the integer-exponent fast path must reproduce exactly.
func powRank(d ZipfDist, u float64) int {
	return min(max(int(math.Pow(u*d.span+1, d.invExp))-1, 0), d.n-1)
}

// TestZipfFastPathExact: for every exponent whose 1/(1-s) is an integer,
// the rank drawn through b^k equals the math.Pow formula's — on a million
// random u per (s, n), and on the u either side of the first 64 rank
// boundaries and the last, found by bisection on the formula, where the
// power lies as near an integer as a float64 u can put it. The fallback
// must run (near the boundaries) and stay rare (on random draws); s = 1,
// the harmonic special case, never takes the fast path.
func TestZipfFastPathExact(t *testing.T) {
	const draws = 1_000_000
	var randomFallbacks, boundaryFallbacks, randomDraws int
	for _, s := range []float64{0.95, 1.05, 1.10} {
		for _, n := range []int{16, 1000, 49152, 1 << 20} {
			d := NewZipfDist(n, s)
			if d.intExp == 0 {
				t.Fatalf("s=%v n=%d: no integer exponent recorded (1/(1-s) = %v)", s, n, d.invExp)
			}
			fellBack := func(u float64) bool {
				_, ok := d.floorIntPow(u*d.span + 1)
				if got, want := d.rank(u), powRank(d, u); got != want {
					t.Fatalf("s=%v n=%d u=%v (%#x): rank %d, math.Pow formula %d",
						s, n, u, math.Float64bits(u), got, want)
				}
				return !ok
			}
			r := New(uint64(n) ^ math.Float64bits(s))
			for i := 0; i < draws; i++ {
				if fellBack(r.Float64()) {
					randomFallbacks++
				}
			}
			randomDraws += draws
			for j := 1; j < n; j++ {
				if j > 64 && j < n-1 {
					continue
				}
				// Bisect on the bits of u (monotone in u for u >= 0) for
				// adjacent u with ranks either side of j.
				lo, hi := uint64(0), math.Float64bits(1)
				for hi-lo > 1 {
					mid := lo + (hi-lo)/2
					if powRank(d, math.Float64frombits(mid)) >= j {
						hi = mid
					} else {
						lo = mid
					}
				}
				for _, u := range []uint64{lo, hi} {
					if fellBack(math.Float64frombits(u)) {
						boundaryFallbacks++
					}
				}
			}
		}
	}
	t.Logf("fallbacks: %d of %d random draws, %d at the boundaries", randomFallbacks, randomDraws, boundaryFallbacks)
	if randomFallbacks+boundaryFallbacks == 0 {
		t.Error("the math.Pow fallback never ran")
	}
	if randomFallbacks*1000 >= randomDraws {
		t.Errorf("the fallback ran on %d of %d random draws, want under 0.1 %%", randomFallbacks, randomDraws)
	}

	for _, n := range []int{16, 1000, 1 << 20} {
		d := NewZipfDist(n, 1)
		if _, ok := d.floorIntPow(0.5*d.span + 1); d.intExp != 0 || ok {
			t.Errorf("s=1 n=%d: fast path taken (integer exponent %d)", n, d.intExp)
		}
	}
}

func TestPermIsBijection(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + int(seed%257)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(21)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("shuffle changed element multiset: sum %d != %d", got, sum)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
