package rng

import (
	"math"
	"testing"
	"testing/quick"

	"qkd/internal/bitarray"
)

func TestLFSRNonDegenerate(t *testing.T) {
	l := NewLFSR32(0xDEADBEEF)
	ones := 0
	for i := 0; i < 10000; i++ {
		ones += l.Next()
	}
	// A maximal LFSR is balanced: expect ~5000 ones.
	if ones < 4500 || ones > 5500 {
		t.Errorf("LFSR badly biased: %d ones in 10000", ones)
	}
}

func TestLFSRZeroSeedMapped(t *testing.T) {
	l := NewLFSR32(0)
	if l.State() == 0 {
		t.Fatal("zero seed locked the register")
	}
	seen := false
	for i := 0; i < 100; i++ {
		if l.Next() == 1 {
			seen = true
		}
	}
	if !seen {
		t.Error("LFSR from mapped seed produced all zeros")
	}
}

func TestLFSRDeterministic(t *testing.T) {
	a := NewLFSR32(42)
	b := NewLFSR32(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("LFSR diverged at step %d", i)
		}
	}
}

func TestLFSRLongPeriod(t *testing.T) {
	// State must not return to the seed within a modest horizon
	// (period is 2^32-1 for maximal taps).
	l := NewLFSR32(1)
	for i := 0; i < 1<<16; i++ {
		l.Next()
		if l.State() == 1 {
			t.Fatalf("LFSR period only %d", i+1)
		}
	}
}

func TestMaskAgreement(t *testing.T) {
	m1 := Mask(12345, 777)
	m2 := Mask(12345, 777)
	if !m1.Equal(m2) {
		t.Fatal("same seed produced different masks")
	}
	m3 := Mask(12346, 777)
	if m1.Equal(m3) {
		t.Fatal("different seeds produced identical masks")
	}
	if m1.Len() != 777 {
		t.Fatalf("mask length %d", m1.Len())
	}
}

func TestMaskRoughlyHalf(t *testing.T) {
	m := Mask(999, 10000)
	ones := m.OnesCount()
	if ones < 4500 || ones > 5500 {
		t.Errorf("mask density off: %d/10000", ones)
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	a := NewSplitMix64(7)
	b := NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitMix64 nondeterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix64(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSplitMix64(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn biased: value %d count %d", v, c)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

func TestPoissonMean(t *testing.T) {
	s := NewSplitMix64(11)
	for _, lambda := range []float64{0.1, 0.5, 2, 10} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 0.15*lambda+0.02 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	s := NewSplitMix64(1)
	for i := 0; i < 100; i++ {
		if s.Poisson(0) != 0 {
			t.Fatal("Poisson(0) != 0")
		}
	}
}

func TestPoissonLargeLambdaApprox(t *testing.T) {
	s := NewSplitMix64(2)
	n := 5000
	sum := 0
	for i := 0; i < n; i++ {
		k := s.Poisson(100)
		if k < 0 {
			t.Fatal("negative Poisson draw")
		}
		sum += k
	}
	mean := float64(sum) / float64(n)
	if mean < 95 || mean > 105 {
		t.Errorf("Poisson(100) mean = %v", mean)
	}
}

func TestBitsLengthAndBalance(t *testing.T) {
	s := NewSplitMix64(9)
	a := s.Bits(10001)
	if a.Len() != 10001 {
		t.Fatalf("Bits length %d", a.Len())
	}
	ones := a.OnesCount()
	if ones < 4600 || ones > 5400 {
		t.Errorf("Bits biased: %d/10001", ones)
	}
}

func TestBytesFill(t *testing.T) {
	s := NewSplitMix64(13)
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		p := make([]byte, n)
		s.Bytes(p)
		if n >= 16 {
			allZero := true
			for _, b := range p {
				if b != 0 {
					allZero = false
				}
			}
			if allZero {
				t.Errorf("Bytes(%d) all zero", n)
			}
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := NewSplitMix64(17)
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	s.Shuffle(idx)
	seen := make(map[int]bool)
	for _, v := range idx {
		if seen[v] {
			t.Fatalf("duplicate %d after shuffle", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatal("shuffle lost elements")
	}
}

// Property: Mask is a pure function of (seed, n).
func TestPropertyMaskPure(t *testing.T) {
	f := func(seed uint32, nRaw uint16) bool {
		n := int(nRaw)%512 + 1
		return Mask(seed, n).Equal(Mask(seed, n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMask4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Mask(uint32(i), 4096)
	}
}

func BenchmarkPoissonMu01(b *testing.B) {
	s := NewSplitMix64(1)
	for i := 0; i < b.N; i++ {
		s.Poisson(0.1)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := NewSplitMix64(1)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := s.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := s.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
	for i := 0; i < 100; i++ {
		if got := s.Binomial(10, 0.3); got < 0 || got > 10 {
			t.Fatalf("Binomial(10, .3) = %d out of range", got)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	// Both regimes (geometric-gap and normal approximation) must
	// reproduce the binomial mean and variance within 5 sigma.
	s := NewSplitMix64(42)
	cases := []struct {
		n int
		p float64
	}{
		{10000, 0.001}, // sparse: geometric-gap path
		{10000, 0.07},  // sparse-ish, still exact
		{10000, 0.5},   // dense: normal approximation
		{200, 0.4},     // small n, exact via complement
	}
	for _, c := range cases {
		const draws = 20000
		sum, sum2 := 0.0, 0.0
		for i := 0; i < draws; i++ {
			k := float64(s.Binomial(c.n, c.p))
			sum += k
			sum2 += k * k
		}
		mean := sum / draws
		wantMean := float64(c.n) * c.p
		variance := sum2/draws - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		// 5-sigma tolerance on the sample mean.
		tol := 5 * math.Sqrt(wantVar/draws)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Binomial(%d, %g): mean %.2f, want %.2f +/- %.2f", c.n, c.p, mean, wantMean, tol)
		}
		if variance < 0.8*wantVar || variance > 1.2*wantVar {
			t.Errorf("Binomial(%d, %g): variance %.2f, want ~%.2f", c.n, c.p, variance, wantVar)
		}
	}
}

// TestNextWordMatchesScalar pins the word-batched LFSR to the scalar
// register: 64 bits per step, identical stream and identical state.
func TestNextWordMatchesScalar(t *testing.T) {
	for _, seed := range []uint32{1, 2, 0xDEADBEEF, 0x80000000, 12345} {
		a := NewLFSR32(seed)
		b := NewLFSR32(seed)
		for step := 0; step < 16; step++ {
			var want uint64
			for i := 0; i < 64; i++ {
				want |= uint64(a.Next()) << i
			}
			got := b.NextWord()
			if got != want {
				t.Fatalf("seed %#x step %d: NextWord %#x, scalar %#x", seed, step, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("seed %#x step %d: state diverged %#x vs %#x", seed, step, a.State(), b.State())
			}
		}
	}
}

// TestNextWordJumpFromManyStates pins the 64-step jump tables against
// the scalar register: from every single-bit state, from every byte
// value in every byte position (which reads each table row once beside
// three zero rows), and from 1,000 random states.
func TestNextWordJumpFromManyStates(t *testing.T) {
	var states []uint32
	for i := 0; i < 32; i++ {
		states = append(states, 1<<i)
	}
	for k := 0; k < 4; k++ {
		for v := uint32(1); v < 256; v++ {
			states = append(states, v<<(8*k))
		}
	}
	r := NewSplitMix64(2024)
	for i := 0; i < 1000; i++ {
		states = append(states, r.Uint32())
	}
	for _, s := range states {
		a, b := LFSR32{state: s}, LFSR32{state: s}
		var want uint64
		for i := 0; i < 64; i++ {
			want |= uint64(a.Next()) << i
		}
		if got := b.NextWord(); got != want {
			t.Fatalf("state %#x: NextWord %#x, scalar %#x", s, got, want)
		}
		if a.State() != b.State() {
			t.Fatalf("state %#x: jumped to %#x, scalar %#x", s, b.State(), a.State())
		}
	}
}

// TestMaskWordsMatchesScalarMask pins MaskWords (and therefore Mask)
// against a per-bit scalar construction at awkward lengths.
func TestMaskWordsMatchesScalarMask(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 1000, 4096} {
		for _, seed := range []uint32{1, 99, 0xCAFEBABE} {
			l := NewLFSR32(seed)
			want := bitarray.New(n)
			for i := 0; i < n; i++ {
				if l.Next() == 1 {
					want.Set(i, 1)
				}
			}
			got := Mask(seed, n)
			if !got.Equal(want) {
				t.Fatalf("seed %#x n=%d: Mask mismatch", seed, n)
			}
			// Buffer-reuse path: dirty destination must not leak.
			dirty := make([]uint64, (n+63)/64)
			for i := range dirty {
				dirty[i] = ^uint64(0)
			}
			w := MaskWords(seed, n, dirty)
			if !bitarray.FromWords(w, n).Equal(want) {
				t.Fatalf("seed %#x n=%d: MaskWords(dst) mismatch", seed, n)
			}
		}
	}
}

// TestMaskWordsTailZero confirms bits past n are cleared so word-level
// consumers (ParityMasked, popcounts) never see stale garbage.
func TestMaskWordsTailZero(t *testing.T) {
	w := MaskWords(77, 70, []uint64{^uint64(0), ^uint64(0)})
	if top := w[1] >> 6; top != 0 {
		t.Errorf("bits past n survive: %#x", top)
	}
}

func BenchmarkMaskWords4096(b *testing.B) {
	buf := make([]uint64, 64)
	for i := 0; i < b.N; i++ {
		MaskWords(uint32(i)+1, 4096, buf)
	}
}
