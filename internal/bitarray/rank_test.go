package bitarray

import (
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

func BenchmarkParityIndexQuery4096(b *testing.B) {
	p := &prng{s: 3}
	mask := randArray(p, 4096)
	data := randArray(p, 4096)
	r := NewRank(mask)
	px := r.Bind(data, nil)
	c := r.Count()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px.ParityRange(c/4, c/2)
	}
}

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
