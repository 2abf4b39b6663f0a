// Package bitarray provides packed bit vectors used throughout the QKD
// protocol stack: sifted bits, error-corrected bits, parity subsets,
// pseudo-random masks, and GF(2^n) field elements all live in BitArrays.
//
// A BitArray stores bits LSB-first within 64-bit words: bit i of the
// array is word i/64, bit i%64. The zero value is an empty, ready-to-use
// array.
package bitarray

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitArray is a growable vector of bits.
type BitArray struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a BitArray of n zero bits.
func New(n int) *BitArray {
	if n < 0 {
		panic("bitarray: negative length")
	}
	return &BitArray{words: make([]uint64, (n+63)/64), n: n}
}

// FromBools builds a BitArray from a slice of booleans.
func FromBools(bs []bool) *BitArray {
	a := New(len(bs))
	for i, b := range bs {
		if b {
			a.Set(i, 1)
		}
	}
	return a
}

// FromBytes builds a BitArray of 8*len(p) bits from packed bytes.
// Bit i is (p[i/8] >> (i%8)) & 1, i.e. LSB-first within each byte.
func FromBytes(p []byte) *BitArray {
	a := New(8 * len(p))
	for i, b := range p {
		a.words[i/8] |= uint64(b) << (8 * (i % 8))
	}
	return a
}

// FromWords builds a BitArray over the given words with explicit bit
// length n. The word slice is used directly (not copied).
func FromWords(words []uint64, n int) *BitArray {
	if n > 64*len(words) {
		panic("bitarray: length exceeds words")
	}
	a := &BitArray{words: words, n: n}
	a.trim()
	return a
}

// Len returns the number of bits.
func (a *BitArray) Len() int { return a.n }

// Words exposes the underlying word slice. Bits past Len are zero.
func (a *BitArray) Words() []uint64 { return a.words }

// Get returns bit i (0 or 1).
func (a *BitArray) Get(i int) int {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitarray: Get(%d) out of range [0,%d)", i, a.n))
	}
	return int(a.words[i>>6] >> (uint(i) & 63) & 1)
}

// Set assigns bit i to v (0 or 1).
func (a *BitArray) Set(i, v int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitarray: Set(%d) out of range [0,%d)", i, a.n))
	}
	mask := uint64(1) << (uint(i) & 63)
	if v != 0 {
		a.words[i>>6] |= mask
	} else {
		a.words[i>>6] &^= mask
	}
}

// Flip toggles bit i.
func (a *BitArray) Flip(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitarray: Flip(%d) out of range [0,%d)", i, a.n))
	}
	a.words[i>>6] ^= uint64(1) << (uint(i) & 63)
}

// Append adds bit v at the end.
func (a *BitArray) Append(v int) {
	if a.n%64 == 0 {
		a.words = append(a.words, 0)
	}
	a.n++
	if v != 0 {
		a.words[(a.n-1)>>6] |= uint64(1) << (uint(a.n-1) & 63)
	}
}

// AppendWord appends the low nbits of w (LSB-first), 0 <= nbits <= 64.
func (a *BitArray) AppendWord(w uint64, nbits int) {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("bitarray: AppendWord(%d bits) out of [0,64]", nbits))
	}
	if nbits == 0 {
		return
	}
	if nbits < 64 {
		w &= (1 << uint(nbits)) - 1
	}
	for need := (a.n + nbits + 63) / 64; len(a.words) < need; {
		a.words = append(a.words, 0)
	}
	off := uint(a.n) & 63
	a.words[a.n>>6] |= w << off
	if off != 0 && int(off)+nbits > 64 {
		a.words[a.n>>6+1] |= w >> (64 - off)
	}
	a.n += nbits
}

// AppendAll appends every bit of b to a, word-at-a-time.
func (a *BitArray) AppendAll(b *BitArray) {
	full := b.n >> 6
	for i := 0; i < full; i++ {
		a.AppendWord(b.words[i], 64)
	}
	if r := b.n & 63; r != 0 {
		a.AppendWord(b.words[full], r)
	}
}

// Clone returns an independent copy.
func (a *BitArray) Clone() *BitArray {
	w := make([]uint64, len(a.words))
	copy(w, a.words)
	return &BitArray{words: w, n: a.n}
}

// Slice returns a copy of bits [from, to).
func (a *BitArray) Slice(from, to int) *BitArray {
	if from < 0 || to > a.n || from > to {
		panic(fmt.Sprintf("bitarray: Slice(%d,%d) out of range [0,%d]", from, to, a.n))
	}
	if from&63 == 0 {
		out := New(to - from)
		copy(out.words, a.words[from>>6:])
		out.trim()
		return out
	}
	out := New(to - from)
	for i := from; i < to; i++ {
		if a.Get(i) == 1 {
			out.Set(i-from, 1)
		}
	}
	return out
}

// CopyRange sets a to a copy of src's bits [from, to), reusing a's
// storage when capacity allows — the allocation-free counterpart of
// Slice for callers that recycle buffers.
func (a *BitArray) CopyRange(src *BitArray, from, to int) {
	if from < 0 || to > src.n || from > to {
		panic(fmt.Sprintf("bitarray: CopyRange(%d,%d) out of range [0,%d]", from, to, src.n))
	}
	n := to - from
	words := (n + 63) / 64
	if cap(a.words) < words {
		a.words = make([]uint64, words)
	}
	a.words = a.words[:words]
	a.n = n
	off := uint(from) & 63
	w0 := from >> 6
	if off == 0 {
		copy(a.words, src.words[w0:w0+words])
	} else {
		for i := 0; i < words; i++ {
			w := src.words[w0+i] >> off
			if w0+i+1 < len(src.words) {
				w |= src.words[w0+i+1] << (64 - off)
			}
			a.words[i] = w
		}
	}
	a.trim()
}

// Truncate shortens the array to n bits (n must not exceed Len).
func (a *BitArray) Truncate(n int) {
	if n < 0 || n > a.n {
		panic("bitarray: bad Truncate length")
	}
	a.n = n
	a.words = a.words[:(n+63)/64]
	a.trim()
}

// trim zeroes any bits past n in the final word so that word-level
// operations (XOR, popcount) never see stale garbage.
func (a *BitArray) trim() {
	if r := uint(a.n) & 63; r != 0 && len(a.words) > 0 {
		a.words[len(a.words)-1] &= (1 << r) - 1
	}
}

// Xor sets a ^= b. The arrays must be the same length.
func (a *BitArray) Xor(b *BitArray) {
	if a.n != b.n {
		panic("bitarray: Xor length mismatch")
	}
	for i := range a.words {
		a.words[i] ^= b.words[i]
	}
}

// Not flips every bit in place.
func (a *BitArray) Not() {
	for i := range a.words {
		a.words[i] = ^a.words[i]
	}
	a.trim()
}

// Compress returns the bits of a at positions where mask has a 1 bit,
// packed in order (the PEXT of a by mask, extended to bit vectors).
// The arrays must be the same length.
func (a *BitArray) Compress(mask *BitArray) *BitArray {
	if a.n != mask.n {
		panic("bitarray: Compress length mismatch")
	}
	out := New(mask.OnesCount())
	j := 0
	for i, m := range mask.words {
		w := a.words[i]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			if w>>uint(b)&1 == 1 {
				out.words[j>>6] |= 1 << (uint(j) & 63)
			}
			j++
		}
	}
	return out
}

// OnesCount returns the number of set bits.
func (a *BitArray) OnesCount() int {
	c := 0
	for _, w := range a.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Parity returns the XOR of all bits (0 or 1).
func (a *BitArray) Parity() int {
	var x uint64
	for _, w := range a.words {
		x ^= w
	}
	return bits.OnesCount64(x) & 1
}

// ParityMasked returns the parity of a restricted to positions where
// mask has a 1 bit. The mask must be at least as long as a... it may be
// longer; extra mask bits are ignored.
func (a *BitArray) ParityMasked(mask *BitArray) int {
	if mask.n < a.n {
		panic("bitarray: mask shorter than array")
	}
	var x uint64
	for i, w := range a.words {
		x ^= w & mask.words[i]
	}
	return bits.OnesCount64(x) & 1
}

// ParityRange returns the parity of bits [from, to).
func (a *BitArray) ParityRange(from, to int) int {
	if from < 0 || to > a.n || from > to {
		panic("bitarray: ParityRange out of range")
	}
	p := 0
	i := from
	// Head: up to word boundary.
	for ; i < to && i%64 != 0; i++ {
		p ^= a.Get(i)
	}
	// Body: whole words.
	for ; i+64 <= to; i += 64 {
		p ^= bits.OnesCount64(a.words[i>>6]) & 1
	}
	// Tail.
	for ; i < to; i++ {
		p ^= a.Get(i)
	}
	return p
}

// Equal reports whether a and b have identical length and contents.
func (a *BitArray) Equal(b *BitArray) bool {
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// HammingDistance returns the number of positions where a and b differ.
// The arrays must be the same length.
func (a *BitArray) HammingDistance(b *BitArray) int {
	if a.n != b.n {
		panic("bitarray: HammingDistance length mismatch")
	}
	d := 0
	for i := range a.words {
		d += bits.OnesCount64(a.words[i] ^ b.words[i])
	}
	return d
}

// Bytes packs the bits into a byte slice, LSB-first within each byte,
// padding the final byte with zero bits.
func (a *BitArray) Bytes() []byte {
	out := make([]byte, (a.n+7)/8)
	for i := range out {
		out[i] = byte(a.words[i/8] >> (8 * (i % 8)))
	}
	if r := a.n % 8; r != 0 {
		out[len(out)-1] &= (1 << r) - 1
	}
	return out
}

// Select returns the bits of a at the given indices, in order.
func (a *BitArray) Select(idx []int) *BitArray {
	out := New(len(idx))
	for j, i := range idx {
		if a.Get(i) == 1 {
			out.Set(j, 1)
		}
	}
	return out
}

// SelectU32 is Select for uint32 indices (the slot lists the protocol
// stack carries), avoiding a conversion pass.
func (a *BitArray) SelectU32(idx []uint32) *BitArray {
	out := New(len(idx))
	for j, i := range idx {
		if a.Get(int(i)) == 1 {
			out.words[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return out
}

// SetRange assigns bits [from, to) to v.
func (a *BitArray) SetRange(from, to, v int) {
	for i := from; i < to; i++ {
		a.Set(i, v)
	}
}

// String renders the bits as a 0/1 string, truncated with an ellipsis
// past 128 bits, for debugging.
func (a *BitArray) String() string {
	var sb strings.Builder
	n := a.n
	trunc := false
	if n > 128 {
		n, trunc = 128, true
	}
	for i := 0; i < n; i++ {
		sb.WriteByte('0' + byte(a.Get(i)))
	}
	if trunc {
		fmt.Fprintf(&sb, "...(%d bits)", a.n)
	}
	return sb.String()
}
