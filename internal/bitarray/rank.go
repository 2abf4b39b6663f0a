package bitarray

import (
	"fmt"
	"math/bits"
)

// This file holds the positional indexes Cascade's dichotomic searches
// run on. A parity subset is a mask over the sifted key; the searches
// ask for the parity of the key restricted to the subset's members with
// *rank* in [lo, hi) — the members in subset order, not bit order. The
// bit-serial answer walks every member with Get; the structures here
// answer from per-word prefix sums, a select sample and a broadword
// in-word select, in a constant number of word lookups for masks of
// LFSR density.

// Rank indexes the set bits of a mask for rank/select queries. It
// depends only on the mask, so Cascade builds one per subset seed and
// rebinds it to fresh key snapshots with Bind as rounds progress.
// The zero value is empty; (re)build with Build.
type Rank struct {
	mask []uint64
	cum  []int32 // cum[w] = set bits in mask words [0, w)
	// samp[j] is the word holding the member of rank 64j, so the member
	// of rank k lies at or after word samp[k/64].
	samp  []int32
	count int
}

// NewRank returns an index over the set bits of mask.
func NewRank(mask *BitArray) *Rank {
	r := &Rank{}
	r.Build(mask)
	return r
}

// Build (re)builds r over mask, reusing prior storage when possible.
// The mask's word slice is referenced, not copied.
func (r *Rank) Build(mask *BitArray) {
	r.mask = mask.words
	nw := len(r.mask)
	if cap(r.cum) < nw+1 {
		r.cum = make([]int32, nw+1)
	}
	r.cum = r.cum[:nw+1]
	// A word's members span at most 64 consecutive ranks, so at most
	// one sample falls in each word: nw slots hold them all.
	if cap(r.samp) < nw {
		r.samp = make([]int32, nw)
	}
	r.samp = r.samp[:nw]
	c, j := int32(0), 0 // j: the next sample, of rank 64j >= c
	for i, w := range r.mask {
		r.cum[i] = c
		// Written for every word: the slot is overwritten until the
		// word holding rank 64j arrives, and then j moves past it.
		r.samp[j] = int32(i)
		c += int32(bits.OnesCount64(w))
		j = int(c+63) >> 6
	}
	r.cum[nw] = c
	r.count = int(c)
	r.samp = r.samp[:j]
}

// Count returns the number of set bits (subset members).
func (r *Rank) Count() int { return r.count }

// Select returns the bit position of the k-th set bit, 0-based. It
// panics unless 0 <= k < Count.
func (r *Rank) Select(k int) int {
	if k < 0 || k >= r.count {
		panic(fmt.Sprintf("bitarray: Select(%d) out of range [0,%d)", k, r.count))
	}
	w := r.findWord(k)
	return w<<6 + selectWord(r.mask[w], k-int(r.cum[w]))
}

// findWord returns the word holding the member of rank k, 0 <= k < Count.
func (r *Rank) findWord(k int) int {
	// Scan on from the sample: the 64 members after it lie in two or
	// three words of a mask of density 1/2, as Cascade's LFSR subsets
	// are; a sparse mask scans its longer gaps. The scan stops at the
	// word holding rank k, as cum[nw] = Count > k.
	w := int(r.samp[k>>6])
	for int(r.cum[w+1]) <= k {
		w++
	}
	return w
}

const (
	lsb8 = 0x0101010101010101
	msb8 = 0x8080808080808080
)

// selectInByte[r][b] is the position of the set bit of rank r in byte b.
var selectInByte [8][256]uint8

func init() {
	for b := 0; b < 256; b++ {
		r := 0
		for i := 0; i < 8; i++ {
			if b>>i&1 == 1 {
				selectInByte[r][b] = uint8(i)
				r++
			}
		}
	}
}

// selectWord returns the position of the set bit of rank r (0-based) in
// w, which must have more than r set bits. It is broadword: the byte
// popcounts' running sums find the byte in one compare across all
// eight lanes, and a table finishes inside the byte.
func selectWord(w uint64, r int) int {
	c := w - (w>>1)&0x5555555555555555
	c = c&0x3333333333333333 + (c>>2)&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f
	c *= lsb8 // byte i: set bits in bytes 0..i
	// Lane i computes 128+r-c_i, which keeps its top bit exactly when
	// c_i <= r (r < 64 and c_i <= 64, so no lane borrows): those lanes
	// are the bytes wholly before the target.
	b := bits.OnesCount64(((uint64(r)*lsb8|msb8)-c)&msb8) << 3
	r -= int((c << 8 >> uint(b)) & 0xff)
	return b + int(selectInByte[r&7][uint8(w>>uint(b))])
}

// ParityIndex binds a Rank to a snapshot of a data array, answering
// "parity of the data bits at subset members of rank [lo, hi)" from the
// per-word prefix parities of data AND mask. The snapshot is live by
// reference: after the data array changes, Bind again before querying.
// Queries update a memo, so an index serves one goroutine at a time.
// The zero value is empty; build with Rank.Bind.
type ParityIndex struct {
	rank   *Rank
	data   []uint64
	parCum []uint8 // parCum[w] = parity of data&mask over words [0, w)
	// The last range's ends and their prefix parities. A bisection's
	// next range starts at the previous range's lo or hi, so one of its
	// two prefixes is known. Bind resets both ends to rank 0, whose
	// prefix parity is 0 on every snapshot.
	lastLo, lastHi int
	parLo, parHi   int
}

// Bind builds (or rebuilds, reusing px's storage when non-nil) a
// ParityIndex of data over r's mask. data must be at least as long as
// the mask.
func (r *Rank) Bind(data *BitArray, px *ParityIndex) *ParityIndex {
	if px == nil {
		px = &ParityIndex{}
	}
	px.rank = r
	px.data = data.words
	px.lastLo, px.lastHi, px.parLo, px.parHi = 0, 0, 0, 0
	if cap(px.parCum) < len(r.mask)+1 {
		px.parCum = make([]uint8, len(r.mask)+1)
	}
	px.parCum = px.parCum[:len(r.mask)+1]
	p := uint8(0)
	for i, m := range r.mask {
		px.parCum[i] = p
		p ^= uint8(bits.OnesCount64(px.data[i]&m) & 1)
	}
	px.parCum[len(r.mask)] = p
	return px
}

// ParityRange returns the parity of the data bits at members of rank
// [lo, hi), 0 <= lo <= hi <= Count.
func (p *ParityIndex) ParityRange(lo, hi int) int {
	var plo int
	switch lo {
	case p.lastLo:
		plo = p.parLo
	case p.lastHi:
		plo = p.parHi
	default:
		plo = p.parityUpTo(lo)
	}
	phi := p.parityUpTo(hi)
	p.lastLo, p.parLo, p.lastHi, p.parHi = lo, plo, hi, phi
	return plo ^ phi
}

// parityUpTo returns the parity of the data bits at the first k members.
func (p *ParityIndex) parityUpTo(k int) int {
	r := p.rank
	if k <= 0 {
		return 0
	}
	if k >= r.count {
		return int(p.parCum[len(r.mask)])
	}
	w := r.findWord(k - 1)
	pos := selectWord(r.mask[w], k-1-int(r.cum[w])) // the k-th member
	low := r.mask[w] & (uint64(2)<<uint(pos) - 1)   // members up to it
	return int(p.parCum[w]) ^ bits.OnesCount64(p.data[w]&low)&1
}

// PrefixParity answers parity queries over contiguous rank ranges of an
// arbitrary traversal order — Classic Cascade's shuffled passes, where
// the "subset" is a permutation of the whole key. Bit r of the packed
// prefix is the parity of the first r visited bits.
type PrefixParity struct {
	bits []uint64
}

// PrefixParities builds the prefix over a's bits visited in the given
// order (order == nil means natural order, computed word-parallel). pp
// is reused when non-nil. Every element of order must be a valid bit
// index; len(order) need not cover all of a.
func (a *BitArray) PrefixParities(order []int, pp *PrefixParity) *PrefixParity {
	if pp == nil {
		pp = &PrefixParity{}
	}
	n := a.n
	if order != nil {
		n = len(order)
	}
	words := n>>6 + 1
	if cap(pp.bits) < words {
		pp.bits = make([]uint64, words)
	}
	pp.bits = pp.bits[:words]
	if order == nil {
		// Word-parallel: within-word inclusive prefix parity via doubling
		// xor-shifts, then shift to exclusive form and fold the carry in.
		carry := uint64(0) // all-ones when the running parity is odd
		for wd := 0; wd < words; wd++ {
			var w uint64
			if wd < len(a.words) {
				w = a.words[wd]
			}
			x := w
			x ^= x << 1
			x ^= x << 2
			x ^= x << 4
			x ^= x << 8
			x ^= x << 16
			x ^= x << 32
			pp.bits[wd] = (x << 1) ^ carry
			if x>>63 == 1 {
				carry = ^carry
			}
		}
		return pp
	}
	for i := range pp.bits {
		pp.bits[i] = 0
	}
	par := uint64(0)
	for i, pos := range order {
		par ^= a.words[pos>>6] >> (uint(pos) & 63) & 1
		pp.bits[(i+1)>>6] |= par << (uint(i+1) & 63)
	}
	return pp
}

// Range returns the parity of the visited bits with rank [lo, hi).
func (p *PrefixParity) Range(lo, hi int) int {
	return int((p.bits[hi>>6]>>(uint(hi)&63) ^ p.bits[lo>>6]>>(uint(lo)&63)) & 1)
}

// NonzeroWords appends the indices of a's nonzero words to dst (which
// may be nil) and returns it — the sparse iteration set for word-level
// operations over mostly-empty arrays, such as Cascade's post-flip
// subset parity updates.
func (a *BitArray) NonzeroWords(dst []int) []int {
	for i, w := range a.words {
		if w != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// ParityMaskedAt returns the parity of a AND mask restricted to the
// listed word indices. With the nonzero words of a sparse array, this
// is ParityMasked at sparse cost.
func (a *BitArray) ParityMaskedAt(mask *BitArray, words []int) int {
	var x uint64
	for _, i := range words {
		x ^= a.words[i] & mask.words[i]
	}
	return bits.OnesCount64(x) & 1
}
