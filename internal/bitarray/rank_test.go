package bitarray

import (
	"fmt"
	"math/bits"
	"testing"
)

// xorshift PRNG; package bitarray cannot import rng (rng imports it).
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s ^= p.s << 13
	p.s ^= p.s >> 7
	p.s ^= p.s << 17
	return p.s
}

func randArray(p *prng, n int) *BitArray {
	a := New(n)
	for i := range a.words {
		a.words[i] = p.next()
	}
	a.trim()
	return a
}

// members materializes the set-bit positions of mask, the bit-serial
// view the rank index replaces.
func members(mask *BitArray) []int {
	var idx []int
	for i := 0; i < mask.Len(); i++ {
		if mask.Get(i) == 1 {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestRankSelectMatchesNaive(t *testing.T) {
	p := &prng{s: 42}
	for _, n := range []int{1, 63, 64, 65, 500, 4096} {
		mask := randArray(p, n)
		idx := members(mask)
		r := NewRank(mask)
		if r.Count() != len(idx) {
			t.Fatalf("n=%d: Count %d, want %d", n, r.Count(), len(idx))
		}
		for k, want := range idx {
			if got := r.Select(k); got != want {
				t.Fatalf("n=%d: Select(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestRankSelectSparseAndDense(t *testing.T) {
	// All-zero mask, all-ones mask, single bit at each word boundary.
	r := NewRank(New(256))
	if r.Count() != 0 {
		t.Error("empty mask has members")
	}
	ones := New(256)
	for i := 0; i < 256; i++ {
		ones.Set(i, 1)
	}
	r.Build(ones)
	for _, k := range []int{0, 63, 64, 255} {
		if got := r.Select(k); got != k {
			t.Errorf("dense Select(%d) = %d", k, got)
		}
	}
	for _, pos := range []int{0, 63, 64, 127, 128, 255} {
		m := New(256)
		m.Set(pos, 1)
		r.Build(m)
		if r.Count() != 1 || r.Select(0) != pos {
			t.Errorf("singleton at %d: Count %d Select %d", pos, r.Count(), r.Select(0))
		}
	}
}

func TestRankSelectOutOfRangePanics(t *testing.T) {
	mask := New(256)
	mask.Set(3, 1)
	mask.Set(200, 1)
	r := NewRank(mask)
	for _, k := range []int{-1, 2, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(%d) on a %d-member mask did not panic", k, r.Count())
				}
			}()
			r.Select(k)
		}()
	}
	// The empty index has no valid rank at all.
	empty := NewRank(New(0))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Select(0) on an empty mask did not panic")
			}
		}()
		empty.Select(0)
	}()
}

func TestParityIndexMatchesNaive(t *testing.T) {
	p := &prng{s: 77}
	for _, n := range []int{1, 64, 65, 1000, 4096} {
		mask := randArray(p, n)
		data := randArray(p, n)
		idx := members(mask)
		px := NewRank(mask).Bind(data, nil)
		ranges := [][2]int{{0, len(idx)}, {0, 0}, {len(idx), len(idx)}}
		for i := 0; i < 50; i++ {
			lo := int(p.next() % uint64(len(idx)+1))
			hi := lo + int(p.next()%uint64(len(idx)-lo+1))
			ranges = append(ranges, [2]int{lo, hi})
		}
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			want := 0
			for _, pos := range idx[lo:hi] {
				want ^= data.Get(pos)
			}
			if got := px.ParityRange(lo, hi); got != want {
				t.Fatalf("n=%d: ParityRange(%d,%d) = %d, want %d", n, lo, hi, got, want)
			}
		}
	}
}

// naiveSelect returns the position of the set bit of rank r in w.
func naiveSelect(w uint64, r int) int {
	for i := 0; i < 64; i++ {
		if w>>i&1 == 1 {
			if r == 0 {
				return i
			}
			r--
		}
	}
	return -1
}

func TestSelectWordMatchesNaive(t *testing.T) {
	p := &prng{s: 17}
	check := func(w uint64) {
		t.Helper()
		for r := 0; r < bits.OnesCount64(w); r++ {
			if got, want := selectWord(w, r), naiveSelect(w, r); got != want {
				t.Fatalf("selectWord(%#x, %d) = %d, want %d", w, r, got, want)
			}
		}
	}
	// Every byte value at every byte position, alone and among random
	// bytes on either side.
	for pos := 0; pos < 8; pos++ {
		sh := uint(8 * pos)
		for v := uint64(0); v < 256; v++ {
			check(v << sh)
			check(p.next()&^(0xff<<sh) | v<<sh)
		}
	}
	for i := 0; i < 10000; i++ {
		check(p.next())
		check(p.next() & p.next() & p.next())
		check(p.next() | p.next() | p.next())
	}
	check(^uint64(0))
}

// maskOfDensity returns an n-bit mask whose bits are each set with
// probability num/64.
func maskOfDensity(p *prng, n, num int) *BitArray {
	a := New(n)
	for i := 0; i < n; i++ {
		if int(p.next()%64) < num {
			a.Set(i, 1)
		}
	}
	return a
}

// checkRankParity compares Rank and ParityIndex over mask against the
// member walk: Select at every rank, the prefix parity at every rank,
// and random ranges.
func checkRankParity(t *testing.T, p *prng, mask *BitArray, name string) {
	t.Helper()
	idx := members(mask)
	r := NewRank(mask)
	if r.Count() != len(idx) {
		t.Fatalf("%s: Count %d, want %d", name, r.Count(), len(idx))
	}
	for k, want := range idx {
		if got := r.Select(k); got != want {
			t.Fatalf("%s: Select(%d) = %d, want %d", name, k, got, want)
		}
	}
	// Each sample must name the word of its member exactly: one too
	// early still answers, only slower.
	if len(r.samp) != (len(idx)+63)/64 {
		t.Fatalf("%s: %d samples for %d members", name, len(r.samp), len(idx))
	}
	for j, w := range r.samp {
		if want := idx[64*j] >> 6; int(w) != want {
			t.Fatalf("%s: sample %d in word %d, want %d", name, j, w, want)
		}
	}
	data := randArray(p, mask.Len())
	prefix := make([]int, len(idx)+1)
	for k, pos := range idx {
		prefix[k+1] = prefix[k] ^ data.Get(pos)
	}
	px := r.Bind(data, nil)
	for k := range prefix {
		if got := px.ParityRange(0, k); got != prefix[k] {
			t.Fatalf("%s: ParityRange(0, %d) = %d, want %d", name, k, got, prefix[k])
		}
	}
	for i := 0; i < 200; i++ {
		lo := int(p.next() % uint64(len(idx)+1))
		hi := lo + int(p.next()%uint64(len(idx)-lo+1))
		if got, want := px.ParityRange(lo, hi), prefix[hi]^prefix[lo]; got != want {
			t.Fatalf("%s: ParityRange(%d, %d) = %d, want %d", name, lo, hi, got, want)
		}
	}
}

func TestRankParityAtDensities(t *testing.T) {
	p := &prng{s: 99}
	var lengths []int
	for n := 1; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for n := 131; n < 4096; n += 61 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4032, 4095, 4096)
	for _, num := range []int{1, 32, 63} { // densities 1/64, 1/2, 63/64
		for _, n := range lengths {
			checkRankParity(t, p, maskOfDensity(p, n, num), fmt.Sprintf("density %d/64, n=%d", num, n))
		}
	}
	// Runs of empty words spanning more than two samples: inside a
	// dense mask, leading it, and trailing it.
	for _, n := range []int{4096, 4001} {
		for _, gap := range [][2]int{{512, 3500}, {0, 3000}, {300, n}} {
			m := maskOfDensity(p, n, 32)
			for i := gap[0]; i < gap[1]; i++ {
				m.Set(i, 0)
			}
			checkRankParity(t, p, m, fmt.Sprintf("n=%d, empty [%d,%d)", n, gap[0], gap[1]))
		}
	}
}

// TestParityIndexBisectionPattern queries as Cascade's searches do —
// each range shares an end with the one before it — and interleaves
// data flips and rebinds mid-search, so a remembered prefix that
// outlived its snapshot would answer wrong.
func TestParityIndexBisectionPattern(t *testing.T) {
	p := &prng{s: 1234}
	for _, num := range []int{1, 32, 63} {
		n := 4096 - 37
		mask := maskOfDensity(p, n, num)
		data := randArray(p, n)
		idx := members(mask)
		r := NewRank(mask)
		px := r.Bind(data, nil)
		naive := func(lo, hi int) int {
			x := 0
			for _, pos := range idx[lo:hi] {
				x ^= data.Get(pos)
			}
			return x
		}
		for search := 0; search < 100; search++ {
			lo, hi := 0, len(idx)
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if got, want := px.ParityRange(lo, mid), naive(lo, mid); got != want {
					t.Fatalf("density %d/64, search %d: ParityRange(%d, %d) = %d, want %d",
						num, search, lo, mid, got, want)
				}
				if p.next()&1 == 0 {
					hi = mid
				} else {
					lo = mid
				}
				if p.next()%4 == 0 {
					data.Flip(idx[int(p.next()%uint64(len(idx)))])
					px = r.Bind(data, px)
				}
			}
		}
	}
}

func TestParityIndexRebind(t *testing.T) {
	// Rebinding after the data changes must reflect the new snapshot,
	// reusing the index storage.
	p := &prng{s: 5}
	mask := randArray(p, 512)
	data := randArray(p, 512)
	r := NewRank(mask)
	px := r.Bind(data, nil)
	before := px.ParityRange(0, r.Count())
	data.Flip(members(mask)[0])
	px = r.Bind(data, px)
	if px.ParityRange(0, r.Count()) == before {
		t.Error("rebound index did not observe the flip")
	}
}

func TestPrefixParitiesIdentity(t *testing.T) {
	p := &prng{s: 9}
	for _, n := range []int{1, 63, 64, 65, 127, 129, 4096} {
		a := randArray(p, n)
		pp := a.PrefixParities(nil, nil)
		par := 0
		for r := 0; r <= n; r++ {
			if got := pp.Range(0, r); got != par%2 && r > 0 {
				t.Fatalf("n=%d: prefix at %d = %d, want %d", n, r, got, par%2)
			}
			if r < n {
				par += a.Get(r)
			}
		}
		// Spot-check interior ranges against ParityRange.
		for i := 0; i < 20; i++ {
			lo := int(p.next() % uint64(n+1))
			hi := lo + int(p.next()%uint64(n-lo+1))
			if got, want := pp.Range(lo, hi), a.ParityRange(lo, hi); got != want {
				t.Fatalf("n=%d: Range(%d,%d) = %d, want %d", n, lo, hi, got, want)
			}
		}
	}
}

func TestPrefixParitiesOrdered(t *testing.T) {
	p := &prng{s: 13}
	n := 1000
	a := randArray(p, n)
	// A fixed pseudo-random permutation.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(p.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	pp := a.PrefixParities(order, nil)
	for i := 0; i < 50; i++ {
		lo := int(p.next() % uint64(n+1))
		hi := lo + int(p.next()%uint64(n-lo+1))
		want := 0
		for _, pos := range order[lo:hi] {
			want ^= a.Get(pos)
		}
		if got := pp.Range(lo, hi); got != want {
			t.Fatalf("Range(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
	// Identity order passed explicitly must agree with the fast path.
	idOrder := make([]int, n)
	for i := range idOrder {
		idOrder[i] = i
	}
	slow := a.PrefixParities(idOrder, nil)
	fast := a.PrefixParities(nil, nil)
	for r := 0; r <= n; r++ {
		if slow.Range(0, r) != fast.Range(0, r) {
			t.Fatalf("identity fast path diverges at %d", r)
		}
	}
}

func TestParityMaskedAtMatchesParityMasked(t *testing.T) {
	p := &prng{s: 21}
	n := 2048
	mask := randArray(p, n)
	// Sparse flip set: a handful of bits.
	flips := New(n)
	for i := 0; i < 10; i++ {
		flips.Set(int(p.next()%uint64(n)), 1)
	}
	nz := flips.NonzeroWords(nil)
	if got, want := flips.ParityMaskedAt(mask, nz), flips.ParityMasked(mask); got != want {
		t.Errorf("sparse parity %d, want %d", got, want)
	}
	if len(nz) > 10 {
		t.Errorf("nonzero words %d for 10 flips", len(nz))
	}
}

// BenchmarkParityIndexQuery4096 measures one query of Cascade's access
// pattern: seeded bisections over 64 subsets of density 1/2, taken one
// level per subset in turn as a wave queries them, so successive
// queries land on different subsets and ranges.
func BenchmarkParityIndexQuery4096(b *testing.B) {
	p := &prng{s: 3}
	data := randArray(p, 4096)
	const subsets = 64
	pxs := make([]*ParityIndex, subsets)
	lo, hi := make([]int, subsets), make([]int, subsets)
	for i := range pxs {
		pxs[i] = NewRank(randArray(p, 4096)).Bind(data, nil)
	}
	dirs := make([]uint64, 1024)
	for i := range dirs {
		dirs[i] = p.next()
	}
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % subsets
		px := pxs[j]
		if hi[j]-lo[j] < 2 {
			lo[j], hi[j] = 0, px.rank.Count()
		}
		mid := (lo[j] + hi[j]) / 2
		sink ^= px.ParityRange(lo[j], mid)
		if dirs[i/64%len(dirs)]>>(i%64)&1 == 0 {
			hi[j] = mid
		} else {
			lo[j] = mid
		}
	}
	benchSink = sink
}

var benchSink int

func BenchmarkRankBind4096(b *testing.B) {
	p := &prng{s: 3}
	mask := randArray(p, 4096)
	data := randArray(p, 4096)
	r := NewRank(mask)
	var px *ParityIndex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px = r.Bind(data, px)
	}
}

func TestCopyRangeMatchesSlice(t *testing.T) {
	p := &prng{s: 31}
	src := randArray(p, 1000)
	dst := New(0)
	for _, rg := range [][2]int{{0, 1000}, {0, 0}, {64, 128}, {13, 999}, {63, 65}, {500, 500}} {
		dst.CopyRange(src, rg[0], rg[1])
		if !dst.Equal(src.Slice(rg[0], rg[1])) {
			t.Fatalf("CopyRange(%d,%d) differs from Slice", rg[0], rg[1])
		}
	}
	// Shrinking reuse: residue from a larger copy must not leak.
	dst.CopyRange(src, 0, 1000)
	dst.CopyRange(src, 3, 67)
	if !dst.Equal(src.Slice(3, 67)) {
		t.Fatal("CopyRange reuse leaked stale bits")
	}
}
