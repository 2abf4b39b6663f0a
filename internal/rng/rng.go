// Package rng provides the deterministic randomness primitives the QKD
// protocol suite depends on: a 32-bit Galois LFSR (the paper uses
// LFSR-derived pseudo-random subsets in its Cascade variant, identified
// on the wire by their 32-bit seed), and a SplitMix64 PRNG used to drive
// the photonic simulator reproducibly.
//
// These generators are NOT cryptographically secure, and are not meant
// to be: the LFSR subsets are public protocol state (their seeds are
// sent in the clear), and the simulator randomness models physics, not
// secrets. Secret material (basis choices, OTP pads in production use)
// would come from hardware randomness; the simulator substitutes seeded
// PRNG so experiments are reproducible.
package rng

import (
	"math"

	"qkd/internal/bitarray"
)

// LFSR32 is a 32-bit Galois linear-feedback shift register with the
// maximal-length taps x^32 + x^22 + x^2 + x^1 + 1 (taps 0xC0000401 in
// Galois form). Seeded with any nonzero value it has period 2^32-1.
//
// The paper's Cascade variant defines each parity subset as "a
// pseudo-random bit string from a Linear-Feedback Shift Register ...
// identified by a 32-bit seed for the LFSR"; Mask reproduces that.
type LFSR32 struct {
	state uint32
}

// galoisTaps is the feedback mask for x^32+x^22+x^2+x+1.
const galoisTaps = 0xC0000401

// NewLFSR32 returns an LFSR seeded with seed. A zero seed would lock
// the register, so it is mapped to 1.
func NewLFSR32(seed uint32) *LFSR32 {
	if seed == 0 {
		seed = 1
	}
	return &LFSR32{state: seed}
}

// Next advances the register one step and returns the output bit.
func (l *LFSR32) Next() int {
	out := int(l.state & 1)
	l.state >>= 1
	if out == 1 {
		l.state ^= galoisTaps
	}
	return out
}

// State returns the current register contents.
func (l *LFSR32) State() uint32 { return l.state }

// The Galois update is linear over GF(2), and so is the output tap: the
// 64 output bits of the next 64 steps, and the state 64 steps on, are
// both linear functions of the 32-bit state. Split the state into four
// bytes and each function is the XOR of four byte-indexed table rows:
// jumpOut[k][b] holds the 64 output bits, and jumpState[k][b] the state
// after 64 steps, from a register holding b in byte k and zero
// elsewhere. A word of LFSR output then costs four loads, none of
// which waits on another.
var (
	jumpOut   [4][256]uint64
	jumpState [4][256]uint32
)

func init() {
	for k := 0; k < 4; k++ {
		for b := 0; b < 256; b++ {
			l := LFSR32{state: uint32(b) << (8 * k)}
			var out uint64
			for i := 0; i < 64; i++ {
				out |= uint64(l.Next()) << i
			}
			jumpOut[k][b] = out
			jumpState[k][b] = l.state
		}
	}
}

// NextWord advances the register 64 steps and returns the 64 output
// bits, LSB-first — the word-batched equivalent of 64 calls to Next.
// Its body sits at the compiler's inlining budget, so MaskWords' loop
// keeps the state in a register with no call per word.
func (l *LFSR32) NextWord() uint64 {
	b0, b1, b2, b3 := uint8(l.state), uint8(l.state>>8), uint8(l.state>>16), l.state>>24
	l.state = jumpState[0][b0] ^ jumpState[1][b1] ^ jumpState[2][b2] ^ jumpState[3][b3]
	return jumpOut[0][b0] ^ jumpOut[1][b1] ^ jumpOut[2][b2] ^ jumpOut[3][b3]
}

// Mask generates an n-bit pseudo-random mask: bit i is the i-th output
// of the LFSR. Two parties running NewLFSR32(seed).Mask(n) with the
// same seed and n obtain identical masks, which is how the BBN Cascade
// variant communicates subsets by seed alone.
func Mask(seed uint32, n int) *bitarray.BitArray {
	return bitarray.FromWords(MaskWords(seed, n, nil), n)
}

// MaskWords is Mask in raw word form, 64 bits per step: it fills (and
// returns) dst with ceil(n/64) words of LFSR output, allocating only
// when dst lacks capacity. Bits past n in the final word are zeroed.
// Callers that recycle mask buffers across Cascade rounds use this to
// keep subset generation allocation-free.
func MaskWords(seed uint32, n int, dst []uint64) []uint64 {
	words := (n + 63) / 64
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	l := NewLFSR32(seed)
	for i := range dst {
		dst[i] = l.NextWord()
	}
	if r := uint(n) & 63; r != 0 && words > 0 {
		dst[words-1] &= (1 << r) - 1
	}
	return dst
}

// SplitMix64 is a tiny, fast, well-distributed 64-bit PRNG
// (Steele, Lea, Flood 2014). It backs all simulator randomness.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns 32 random bits.
func (s *SplitMix64) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Bit returns a single random bit as 0 or 1.
func (s *SplitMix64) Bit() int { return int(s.Uint64() >> 63) }

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Rejection sampling to avoid modulo bias.
	max := (1 << 63) - (1<<63)%uint64(n)
	for {
		v := s.Uint64() >> 1
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// Poisson draws from a Poisson distribution with mean lambda using
// Knuth's method, which is exact and fast for the small means used in
// weak-coherent pulse simulation (mu ~ 0.1).
func (s *SplitMix64) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// For the large means that can arise in bright-pulse modelling,
	// fall back to a normal approximation to keep this O(1).
	if lambda > 30 {
		k := int(lambda + s.normFloat()*math.Sqrt(lambda) + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial draws the number of successes in n independent trials of
// probability p. The batched photonics engine uses it to draw aggregate
// per-frame click totals instead of per-pulse coin flips.
//
// For the sparse regime the engine lives in (np small) the draw is
// exact: successes are located by sampling geometric gaps between them,
// costing O(np) time. When the variance np(1-p) is large the skew is
// negligible and a rounded normal approximation is used, keeping the
// call O(1); the crossover matches Poisson's.
func (s *SplitMix64) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - s.Binomial(n, 1-p)
	}
	if npq := float64(n) * p * (1 - p); npq > 64 {
		k := int(float64(n)*p + s.normFloat()*math.Sqrt(npq) + 0.5)
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	// Geometric-gap method: the gap to the next success is geometric
	// with parameter p, so successes are found in O(np) expected steps.
	lnq := math.Log1p(-p)
	k, i := 0, 0
	for {
		u := s.Float64() // [0,1); 1-u in (0,1] keeps the log finite
		i += int(math.Log(1-u)/lnq) + 1
		if i > n {
			return k
		}
		k++
	}
}

// Bits fills a BitArray of n random bits.
func (s *SplitMix64) Bits(n int) *bitarray.BitArray {
	a := bitarray.New(n)
	words := a.Words()
	for i := range words {
		words[i] = s.Uint64()
	}
	// Re-trim by reconstructing through FromWords semantics.
	b := bitarray.FromWords(words, n)
	return b
}

// Bytes fills p with random bytes.
func (s *SplitMix64) Bytes(p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	if r := len(p) % 8; r != 0 {
		v := s.Uint64()
		for j := 0; j < r; j++ {
			p[len(p)-r+j] = byte(v >> (8 * j))
		}
	}
}

// Shuffle permutes idx uniformly (Fisher-Yates). Classic Cascade
// shuffles the sifted bits between passes.
func (s *SplitMix64) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// normFloat returns an approximately standard-normal variate by
// summing 12 uniforms (Irwin-Hall); adequate for the normal
// approximation fallback in Poisson.
func (s *SplitMix64) normFloat() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += s.Float64()
	}
	return sum - 6
}
