// Package gf2 implements arithmetic in the binary fields GF(2^n) that
// privacy amplification hashes over. The paper's protocol transmits
// "the (sparse) primitive polynomial of the Galois field, a multiplier
// (n bits long), and an m-bit polynomial to add", with n the number of
// input bits rounded up to a multiple of 32.
//
// Because n varies per privacy-amplification batch, the package finds a
// sparse irreducible polynomial of the required degree at runtime: a
// pentanomial x^n + x^a + x^b + x^c + 1 with small middle exponents
// (degrees that are multiples of 32 are multiples of 8, and no
// irreducible trinomials exist for those degrees). Candidates are
// verified with Rabin's irreducibility test; results are cached per
// degree. Universality of the hash needs a field — irreducibility
// suffices; primitivity would only matter for maximal element order,
// which the hash does not rely on.
//
// Elements are bit vectors packed LSB-first into []uint64 words,
// compatible with package bitarray's layout.
//
// The package also holds the one Wegman-Carter hash, PolyHash: the
// polynomial hash over GF(2^64) behind auth's message tags and the
// ipsec OTP suite's packet tags.
package gf2

import (
	"fmt"
	"math/bits"
	"sync"
)

// Field is GF(2)[x] / (f) for a sparse irreducible f of degree N.
type Field struct {
	// N is the extension degree.
	N int
	// exps are the exponents of f in descending order, starting with N
	// and ending with 0, e.g. {128, 7, 2, 1, 0}.
	exps []int
	// words is len of an element in 64-bit words.
	words int
	// fold holds the word-aligned offsets of the non-leading exponents:
	// x^(N+64i) == sum_e x^(64i+e), so folding a whole word from above
	// the boundary is one shifted xor per exponent at these offsets.
	fold []foldOff
	// foldMis holds the same offsets displaced by 64 - N%64 bits, used
	// when N is not word-aligned: whole stored words then sit that far
	// above the boundary, so their fold targets are at 64i + disp + e.
	foldMis []foldOff
}

// foldOff is one exponent's precomputed reduction offset.
type foldOff struct {
	word  int
	shift uint
}

// newField builds the struct and precomputes the reduction offsets.
func newField(n int, exps []int) *Field {
	f := &Field{N: n, exps: exps, words: (n + 63) / 64}
	f.fold = make([]foldOff, len(exps)-1)
	f.foldMis = make([]foldOff, len(exps)-1)
	disp := (64 - n&63) & 63
	for i, e := range exps[1:] {
		f.fold[i] = foldOff{word: e >> 6, shift: uint(e) & 63}
		f.foldMis[i] = foldOff{word: (e + disp) >> 6, shift: uint(e+disp) & 63}
	}
	return f
}

// fieldCache memoizes the (expensive) polynomial search per degree.
var fieldCache sync.Map // int -> *Field

// knownPolys lists sparse irreducible pentanomials for common degrees,
// found by this package's own search (findIrreducible) and re-verified
// by TestKnownPolyTable. The table short-circuits the runtime search
// for the degrees privacy amplification typically uses.
var knownPolys = map[int][]int{
	32:   {32, 7, 3, 2, 0},
	64:   {64, 4, 3, 1, 0},
	96:   {96, 10, 9, 6, 0},
	128:  {128, 7, 2, 1, 0},
	160:  {160, 5, 3, 2, 0},
	192:  {192, 7, 2, 1, 0},
	224:  {224, 9, 8, 3, 0},
	256:  {256, 10, 5, 2, 0},
	288:  {288, 11, 10, 1, 0},
	320:  {320, 4, 3, 1, 0},
	384:  {384, 12, 3, 2, 0},
	448:  {448, 11, 6, 4, 0},
	512:  {512, 8, 5, 2, 0},
	640:  {640, 14, 3, 2, 0},
	768:  {768, 19, 17, 4, 0},
	896:  {896, 7, 5, 3, 0},
	1024: {1024, 19, 6, 1, 0},
	1280: {1280, 12, 7, 5, 0},
	1536: {1536, 21, 6, 2, 0},
	2048: {2048, 19, 14, 13, 0},
	3072: {3072, 11, 10, 5, 0},
	4096: {4096, 27, 15, 1, 0},
	8192: {8192, 9, 5, 2, 0},
}

// NewField returns a field of degree n, locating (and caching) a sparse
// irreducible polynomial. n must be positive and a multiple of 32, per
// the paper's rounding rule.
func NewField(n int) (*Field, error) {
	if n <= 0 || n%32 != 0 {
		return nil, fmt.Errorf("gf2: degree %d must be a positive multiple of 32", n)
	}
	if f, ok := fieldCache.Load(n); ok {
		return f.(*Field), nil
	}
	exps, ok := knownPolys[n]
	if !ok {
		var err error
		exps, err = findIrreducible(n)
		if err != nil {
			return nil, err
		}
	}
	f := newField(n, exps)
	fieldCache.Store(n, f)
	return f, nil
}

// verifiedPolys memoizes Irreducible verdicts by exponent list. The
// receiving side of privacy amplification validates its peer's
// polynomial on every batch; with fixed-size batches the polynomial
// repeats, and re-running Rabin's test (n squarings in GF(2^n)) per
// batch would dominate the whole distillation pipeline. The cache is
// bounded: polynomials arrive from the network, and an adversary
// proposing a fresh one per batch must not grow process memory — past
// the cap every new polynomial just pays for its own Rabin test.
// Honest links cycle a handful of polynomials, one per degree.
var verifiedPolys struct {
	sync.Mutex
	m map[polyKey]bool
}

const verifiedPolysCap = 256

// polyKey packs an exponent list into a fixed-size comparable value so
// the per-batch cache lookup allocates nothing (the former fmt.Sprint
// key allocated on every privacy-amplification batch). Sixteen slots
// cover every polynomial the wire accepts (privacy caps peers at 16
// exponents); longer or oversized lists fall back to uncached
// validation.
type polyKey struct {
	n int8
	e [16]uint32
}

// packPolyKey returns the key and whether the list is cacheable.
func packPolyKey(exps []int) (polyKey, bool) {
	var k polyKey
	if len(exps) > len(k.e) {
		return k, false
	}
	k.n = int8(len(exps))
	for i, e := range exps {
		if e < 0 || int64(e) > int64(^uint32(0)) {
			return k, false
		}
		k.e[i] = uint32(e)
	}
	return k, true
}

// FieldWithPoly builds a field from explicit exponents (descending,
// ending in 0), verifying irreducibility. The receiving side of privacy
// amplification uses this to validate the polynomial its peer proposed
// — accepting a reducible polynomial would break the hash family's
// universality, so validation is a security check, not pedantry.
// Verdicts are memoized, so only the first sighting of a polynomial
// pays for Rabin's test.
func FieldWithPoly(exps []int) (*Field, error) {
	if len(exps) < 2 || exps[len(exps)-1] != 0 {
		return nil, fmt.Errorf("gf2: polynomial must include x^n and 1")
	}
	for i := 1; i < len(exps); i++ {
		if exps[i] >= exps[i-1] {
			return nil, fmt.Errorf("gf2: exponents must be strictly descending")
		}
	}
	n := exps[0]
	if n <= 0 {
		return nil, fmt.Errorf("gf2: degree %d must be positive", n)
	}
	key, cacheable := packPolyKey(exps)
	seen := false
	var irr bool
	if cacheable {
		verifiedPolys.Lock()
		irr, seen = verifiedPolys.m[key]
		verifiedPolys.Unlock()
	}
	if !seen {
		irr = Irreducible(exps)
		if cacheable {
			verifiedPolys.Lock()
			if verifiedPolys.m == nil {
				verifiedPolys.m = make(map[polyKey]bool)
			}
			if len(verifiedPolys.m) < verifiedPolysCap {
				verifiedPolys.m[key] = irr
			}
			verifiedPolys.Unlock()
		}
	}
	if !irr {
		return nil, fmt.Errorf("gf2: polynomial of degree %d is reducible", n)
	}
	exps = append([]int(nil), exps...) // callers may reuse their slice
	return newField(n, exps), nil
}

// Poly returns the field polynomial's exponents (descending, a copy).
func (f *Field) Poly() []int {
	out := make([]int, len(f.exps))
	copy(out, f.exps)
	return out
}

// Words returns the element size in 64-bit words.
func (f *Field) Words() int { return f.words }

// Mul returns a*b in the field. Inputs must be f.Words() words with
// bits above N zero; the result has the same shape.
func (f *Field) Mul(a, b []uint64) []uint64 {
	prod := clmul(a, b)
	return f.reduce(prod)
}

// Square returns a^2 in the field, in O(n) time (squaring is linear
// over GF(2)).
func (f *Field) Square(a []uint64) []uint64 {
	sq := spread(a)
	return f.reduce(sq)
}

// mul64 returns a*b in the degree-64 field without allocating; other
// degrees get a wrong answer. NewPolyHash builds its tables with it.
func (f *Field) mul64(a, b uint64) uint64 {
	// 64x64 -> 128 carry-less multiply: 4-bit windowed comb over b
	// against a stack table of the 16 nibble multiples of a.
	var tl, th [16]uint64
	tl[1] = a
	for v := 2; v < 16; v += 2 {
		tl[v] = tl[v/2] << 1
		th[v] = th[v/2]<<1 | tl[v/2]>>63
		tl[v+1] = tl[v] ^ a
		th[v+1] = th[v]
	}
	var lo, hi uint64
	for i := 60; i >= 0; i -= 4 {
		hi = hi<<4 | lo>>60
		lo <<= 4
		v := (b >> uint(i)) & 15
		lo ^= tl[v]
		hi ^= th[v]
	}
	// Fold the high word back through the sparse polynomial:
	// x^64 == sum of x^e over the non-leading exponents, so each pass
	// xors the overflow in at every offset; the few bits that overflow
	// again (shift > 0) go around once more until the carry clears.
	for hi != 0 {
		var carry uint64
		for _, o := range f.fold {
			lo ^= hi << o.shift
			if o.shift != 0 {
				carry ^= hi >> (64 - o.shift)
			}
		}
		hi = carry
	}
	return lo
}

// reduce folds a (up to) 2N-bit polynomial down modulo f: whole words
// above the boundary are cleared and xored back at the precomputed
// per-exponent offsets (x^(N+64i) == sum_e x^(64i+e)). All xors are
// word-aligned shifts by a constant per exponent — no per-bit work.
//
// The fold runs until no bit >= N remains ANYWHERE: with a large second
// exponent (wire-supplied polynomials reach FieldWithPoly with any
// strictly-descending exponent list) a single downward sweep can push
// bits back into words it already passed, so correctness for the
// Irreducible security check demands the outer loop. Honest sparse
// pentanomials (small middle exponents) converge in one sweep plus one
// verification scan.
func (f *Field) reduce(v []uint64) []uint64 {
	n := f.N
	// Ensure capacity for word-aligned folding.
	need := (2*n + 63) / 64
	for len(v) < need {
		v = append(v, 0)
	}
	for {
		if n&63 == 0 {
			// Aligned boundary: every source window is a whole word.
			top := n >> 6
			for i := len(v) - 1; i >= top; i-- {
				w := v[i]
				if w == 0 {
					continue
				}
				v[i] = 0
				base := i - top
				for _, fo := range f.fold {
					j := base + fo.word
					v[j] ^= w << fo.shift
					if fo.shift != 0 && j+1 < len(v) {
						v[j+1] ^= w >> (64 - fo.shift)
					}
				}
			}
		} else {
			// Misaligned boundary: whole stored words above it sit
			// 64 - n%64 bits past bit n, so fold targets carry that
			// constant displacement, precomputed in foldMis.
			top := n>>6 + 1
			for i := len(v) - 1; i >= top; i-- {
				w := v[i]
				if w == 0 {
					continue
				}
				v[i] = 0
				base := i - top
				for _, fo := range f.foldMis {
					j := base + fo.word
					v[j] ^= w << fo.shift
					if fo.shift != 0 && j+1 < len(v) {
						v[j+1] ^= w >> (64 - fo.shift)
					}
				}
			}
		}
		// Fold the straddling window [n, n+63] until clean.
		for {
			w := extractWord(v, n)
			if w == 0 {
				break
			}
			clearWord(v, n)
			for _, fo := range f.fold {
				v[fo.word] ^= w << fo.shift
				if fo.shift != 0 && fo.word+1 < len(v) {
					v[fo.word+1] ^= w >> (64 - fo.shift)
				}
			}
		}
		// Converged only when nothing above the boundary survived; each
		// fold strictly lowers the top degree, so this terminates.
		if topBit(v) < n {
			break
		}
	}
	out := make([]uint64, f.words)
	copy(out, v[:min(len(v), f.words)])
	if r := uint(n) & 63; r != 0 {
		out[f.words-1] &= (1 << r) - 1
	}
	return out
}

// One returns the multiplicative identity.
func (f *Field) One() []uint64 {
	e := make([]uint64, f.words)
	e[0] = 1
	return e
}

// X returns the element x.
func (f *Field) X() []uint64 {
	e := make([]uint64, f.words)
	if f.N == 1 {
		// x == f's root; degree-1 fields are never used but keep sane.
		e[0] = 1
		return e
	}
	e[0] = 2
	return e
}

// ---------------------------------------------------------------------
// Carry-less polynomial arithmetic on word slices
// ---------------------------------------------------------------------

// clmul computes the full carry-less product of a and b with a windowed
// comb: the carry-less multiples of b by every window-value polynomial
// are built once, then a is consumed one window position per pass —
// each pass shifts the accumulator left by the window width and xors in
// one word-aligned table row per nonzero window of a. The inner loops
// touch whole words only; the bit-serial shift-and-xor walk this
// replaces cost ~6x more word operations. Small operands use a 4-bit
// window (16-row table, builds in 15 shifted xors); once the xor passes
// dominate the table build, an 8-bit window halves the pass count.
func clmul(a, b []uint64) []uint64 {
	la, lb := len(a), len(b)
	out := make([]uint64, la+lb)
	if la == 0 || lb == 0 {
		return out
	}
	if la >= 32 && lb >= 32 {
		clmul8(out, a, b)
	} else {
		clmul4(out, a, b)
	}
	return out
}

// xorRow xors row into dst (len(dst) >= len(row)), 8-way unrolled: the
// comb spends nearly all its time here, and the unroll drops the cost
// per word from ~1.8 cycles to ~1.2 by amortizing loop overhead.
func xorRow(dst, row []uint64) {
	n := len(row)
	_ = dst[n-1]
	j := 0
	for ; j+8 <= n; j += 8 {
		dst[j] ^= row[j]
		dst[j+1] ^= row[j+1]
		dst[j+2] ^= row[j+2]
		dst[j+3] ^= row[j+3]
		dst[j+4] ^= row[j+4]
		dst[j+5] ^= row[j+5]
		dst[j+6] ^= row[j+6]
		dst[j+7] ^= row[j+7]
	}
	for ; j < n; j++ {
		dst[j] ^= row[j]
	}
}

// tabPool recycles comb tables; the 8-bit table for a 4096-bit operand
// is 130 KiB, and letting make() zero it on every multiply would cost
// more than the window saves. Pooled tables come back dirty, which is
// fine: every row the comb reads is fully rewritten by the build (row 0
// is never read — zero windows are skipped).
var tabPool = sync.Pool{}

func getTab(n int) []uint64 {
	if v := tabPool.Get(); v != nil {
		if t := v.(*[]uint64); cap(*t) >= n {
			return (*t)[:n]
		}
	}
	return make([]uint64, n)
}

func putTab(t []uint64) { tabPool.Put(&t) }

// clmul4 is the 4-bit windowed comb. Table rows are lb+1 words (window
// degree <= 3 spills into one extra word); row t holds t(x)*b(x), built
// incrementally: row t = row without t's lowest set bit, xor b shifted
// by that bit.
func clmul4(out, a, b []uint64) {
	lb := len(b)
	stride := lb + 1
	tab := make([]uint64, 16*stride)
	for t := 1; t < 16; t++ {
		low := t & -t
		prev := tab[(t^low)*stride:]
		row := tab[t*stride : t*stride+stride]
		sh := uint(bits.TrailingZeros64(uint64(low)))
		if sh == 0 {
			for j, w := range b {
				row[j] = prev[j] ^ w
			}
			row[lb] = prev[lb]
		} else {
			var carry uint64
			for j, w := range b {
				row[j] = prev[j] ^ (w<<sh | carry)
				carry = w >> (64 - sh)
			}
			row[lb] = prev[lb] ^ carry
		}
	}
	// Comb passes, highest window first: after the remaining passes'
	// shifts, window (i,k) of a lands at bit 64i+4k as required.
	for k := 15; k >= 0; k-- {
		if k != 15 {
			var carry uint64
			for j := range out {
				w := out[j]
				out[j] = w<<4 | carry
				carry = w >> 60
			}
		}
		for i, wa := range a {
			t := int(wa >> (uint(k) * 4) & 15)
			if t == 0 {
				continue
			}
			xorRow(out[i:], tab[t*stride:t*stride+stride])
		}
	}
}

// clmul8 is the 8-bit windowed comb: 8 passes instead of 16 at the cost
// of a 256-row table. The table builds in one pass of whole-word ops:
// even rows double (shift) the half-index row, odd rows xor b into
// their predecessor; every row is fully rewritten, so the pooled table
// needs no zeroing (row 1's spill word excepted).
func clmul8(out, a, b []uint64) {
	lb := len(b)
	stride := lb + 1
	tab := getTab(256 * stride)
	copy(tab[stride:], b)
	tab[stride+lb] = 0
	for t := 2; t < 256; t++ {
		row := tab[t*stride : t*stride+stride]
		if t&1 == 0 {
			src := tab[(t>>1)*stride : (t>>1)*stride+stride]
			var carry uint64
			for j, w := range src {
				row[j] = w<<1 | carry
				carry = w >> 63
			}
		} else {
			src := tab[(t-1)*stride : (t-1)*stride+stride]
			for j, w := range b {
				row[j] = src[j] ^ w
			}
			row[lb] = src[lb]
		}
	}
	for k := 7; k >= 0; k-- {
		if k != 7 {
			var carry uint64
			for j := range out {
				w := out[j]
				out[j] = w<<8 | carry
				carry = w >> 56
			}
		}
		for i, wa := range a {
			t := int(wa >> (uint(k) * 8) & 255)
			if t == 0 {
				continue
			}
			xorRow(out[i:], tab[t*stride:t*stride+stride])
		}
	}
	putTab(tab)
}

// extractWord reads the 64 bits starting at bit position pos.
func extractWord(v []uint64, pos int) uint64 {
	wordOff := pos / 64
	bitOff := uint(pos) % 64
	w := v[wordOff] >> bitOff
	if bitOff != 0 && wordOff+1 < len(v) {
		w |= v[wordOff+1] << (64 - bitOff)
	}
	return w
}

// clearWord zeroes the 64 bits starting at bit position pos.
func clearWord(v []uint64, pos int) {
	wordOff := pos / 64
	bitOff := uint(pos) % 64
	if bitOff == 0 {
		v[wordOff] = 0
		return
	}
	// Clear the high (64-bitOff) bits of this word and the low bitOff
	// bits of the next.
	v[wordOff] &= (1 << bitOff) - 1
	if wordOff+1 < len(v) {
		v[wordOff+1] &^= (1 << bitOff) - 1
	}
}

// spreadTab spreads byte bits into even positions of a 16-bit value.
var spreadTab [256]uint16

func init() {
	for i := 0; i < 256; i++ {
		var v uint16
		for b := 0; b < 8; b++ {
			if i>>b&1 == 1 {
				v |= 1 << (2 * b)
			}
		}
		spreadTab[i] = v
	}
}

// spread maps a polynomial to its square: bit i goes to bit 2i.
func spread(a []uint64) []uint64 {
	out := make([]uint64, 2*len(a))
	for i, w := range a {
		var lo, hi uint64
		for b := 0; b < 4; b++ {
			lo |= uint64(spreadTab[byte(w>>(8*b))]) << (16 * b)
			hi |= uint64(spreadTab[byte(w>>(8*(b+4)))]) << (16 * b)
		}
		out[2*i] = lo
		out[2*i+1] = hi
	}
	return out
}

// topBit returns the highest set bit position, or -1 for zero.
func topBit(v []uint64) int {
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] != 0 {
			return 64*i + 63 - bits.LeadingZeros64(v[i])
		}
	}
	return -1
}

func flipBit(v []uint64, i int)  { v[i/64] ^= 1 << (uint(i) % 64) }
func clearBit(v []uint64, i int) { v[i/64] &^= 1 << (uint(i) % 64) }

// ---------------------------------------------------------------------
// Irreducibility (Rabin's test)
// ---------------------------------------------------------------------

// Irreducible reports whether the sparse polynomial with the given
// descending exponents is irreducible over GF(2), via Rabin's test:
// f of degree n is irreducible iff x^(2^n) == x (mod f) and, for every
// prime p dividing n, gcd(x^(2^(n/p)) - x, f) == 1.
func Irreducible(exps []int) bool {
	n := exps[0]
	if n == 1 {
		return true
	}
	f := newField(n, exps)

	checkAt := map[int]bool{}
	for _, p := range primeFactors(n) {
		checkAt[n/p] = true
	}

	cur := f.X() // x^(2^0)
	for i := 1; i <= n; i++ {
		cur = f.Square(cur) // x^(2^i)
		if checkAt[i] {
			h := make([]uint64, len(cur))
			copy(h, cur)
			flipBit(h, 1) // h = x^(2^i) - x
			if !coprime(h, exps) {
				return false
			}
		}
	}
	// x^(2^n) must equal x.
	want := f.X()
	for i := range cur {
		if cur[i] != want[i] {
			return false
		}
	}
	return true
}

// coprime reports gcd(h, f) == 1 where f is given by sparse exponents.
func coprime(h []uint64, exps []int) bool {
	// Materialize f densely.
	n := exps[0]
	fw := make([]uint64, n/64+1)
	for _, e := range exps {
		flipBit(fw, e)
	}
	g := polyGCD(fw, h)
	return topBit(g) == 0 // gcd == 1
}

// polyGCD computes the GCD of two GF(2) polynomials (destructive on
// copies).
func polyGCD(a, b []uint64) []uint64 {
	x := make([]uint64, len(a))
	copy(x, a)
	y := make([]uint64, len(b))
	copy(y, b)
	for {
		dy := topBit(y)
		if dy < 0 {
			return x
		}
		dx := topBit(x)
		if dx < dy {
			x, y = y, x
			continue
		}
		// x ^= y << (dx - dy); repeat until deg(x) < deg(y).
		for dx >= dy && dx >= 0 {
			xorShiftInto(x, y, dx-dy)
			dx = topBit(x)
		}
		x, y = y, x
	}
}

// xorShiftInto xors src<<shift into dst, ignoring overflow beyond dst
// (callers guarantee deg fits).
func xorShiftInto(dst, src []uint64, shift int) {
	wordOff := shift / 64
	bitOff := uint(shift) % 64
	for i, w := range src {
		if w == 0 {
			continue
		}
		if wordOff+i < len(dst) {
			dst[wordOff+i] ^= w << bitOff
		}
		if bitOff != 0 && wordOff+i+1 < len(dst) {
			dst[wordOff+i+1] ^= w >> (64 - bitOff)
		}
	}
}

// primeFactors returns the distinct prime factors of n.
func primeFactors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// findIrreducible searches for a sparse irreducible polynomial of
// degree n: first trinomials x^n+x^k+1 (they do not exist when 8 | n,
// but the search is cheap and keeps the function general), then
// pentanomials with small middle exponents.
func findIrreducible(n int) ([]int, error) {
	if n%8 != 0 {
		for k := 1; k < n; k++ {
			exps := []int{n, k, 0}
			if Irreducible(exps) {
				return exps, nil
			}
		}
	}
	limit := n - 1
	if limit > 96 {
		limit = 96
	}
	for a := 3; a <= limit; a++ {
		for b := 2; b < a; b++ {
			for c := 1; c < b; c++ {
				exps := []int{n, a, b, c, 0}
				if Irreducible(exps) {
					return exps, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("gf2: no sparse irreducible polynomial found for degree %d", n)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
