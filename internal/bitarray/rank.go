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
// answer from per-word prefix sums in O(log words) lookups.

// Rank indexes the set bits of a mask for rank/select queries. It
// depends only on the mask, so Cascade caches one per subset seed and
// rebinds it to fresh key snapshots with Index as rounds progress.
// The zero value is empty; (re)build with Build.
type Rank struct {
	mask  []uint64
	cum   []int32 // cum[w] = set bits in mask words [0, w)
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
	if cap(r.cum) < len(r.mask)+1 {
		r.cum = make([]int32, len(r.mask)+1)
	}
	r.cum = r.cum[:len(r.mask)+1]
	c := int32(0)
	for i, w := range r.mask {
		r.cum[i] = c
		c += int32(bits.OnesCount64(w))
	}
	r.cum[len(r.mask)] = c
	r.count = int(c)
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
	s := k + 1 - int(r.cum[w])
	return w<<6 + selectWord(r.mask[w], s)
}

// findWord returns the word holding the set bit of 0-based rank k.
func (r *Rank) findWord(k int) int {
	// Invariant: cum[lo] <= k < cum[hi].
	lo, hi := 0, len(r.cum)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if int(r.cum[mid]) <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// selectWord returns the position of the s-th (1-based) set bit of w.
func selectWord(w uint64, s int) int {
	base := 0
	for {
		c := bits.OnesCount8(uint8(w))
		if s <= c {
			break
		}
		s -= c
		w >>= 8
		base += 8
	}
	for i := 1; i < s; i++ {
		w &= w - 1
	}
	return base + bits.TrailingZeros64(w)
}

// ParityIndex binds a Rank to a snapshot of a data array, answering
// "parity of the data bits at subset members of rank [lo, hi)" from the
// per-word prefix parities of data AND mask. The snapshot is live by
// reference: after the data array changes, Bind again before querying.
// The zero value is empty; build with Rank.Bind.
type ParityIndex struct {
	rank   *Rank
	data   []uint64
	parCum []uint8 // parCum[w] = parity of data&mask over words [0, w)
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
	return p.parityUpTo(hi) ^ p.parityUpTo(lo)
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
	s := k - int(r.cum[w]) // members of word w to include, >= 1
	pos := selectWord(r.mask[w], s)
	low := r.mask[w] & (uint64(2)<<uint(pos) - 1) // lowest s members
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
