package gf2

import (
	"testing"
	"testing/quick"

	"qkd/internal/rng"
)

// Known irreducible polynomials over GF(2) for validation.
var knownIrreducible = [][]int{
	{2, 1, 0},         // x^2+x+1
	{3, 1, 0},         // x^3+x+1
	{8, 4, 3, 1, 0},   // AES polynomial
	{16, 5, 3, 1, 0},  //
	{32, 7, 3, 2, 0},  //
	{64, 4, 3, 1, 0},  //
	{128, 7, 2, 1, 0}, // GCM polynomial
}

var knownReducible = [][]int{
	{2, 0},        // x^2+1 = (x+1)^2
	{4, 0},        // x^4+1
	{8, 1, 0},     // x^8+x+1 is reducible
	{16, 2, 1, 0}, // even number of terms over GF(2) has root 1? x^16+x^2+x+1 at x=1: 1+1+1+1=0 -> divisible by x+1
}

func TestIrreducibleKnownPolys(t *testing.T) {
	for _, exps := range knownIrreducible {
		if !Irreducible(exps) {
			t.Errorf("known irreducible %v reported reducible", exps)
		}
	}
	for _, exps := range knownReducible {
		if Irreducible(exps) {
			t.Errorf("known reducible %v reported irreducible", exps)
		}
	}
}

func TestNewFieldDegrees(t *testing.T) {
	for _, n := range []int{32, 64, 96, 128, 160, 1024} {
		f, err := NewField(n)
		if err != nil {
			t.Fatalf("NewField(%d): %v", n, err)
		}
		if f.N != n {
			t.Errorf("N = %d", f.N)
		}
		poly := f.Poly()
		if poly[0] != n || poly[len(poly)-1] != 0 {
			t.Errorf("NewField(%d) poly %v malformed", n, poly)
		}
		if !Irreducible(poly) {
			t.Errorf("NewField(%d) returned reducible %v", n, poly)
		}
	}
}

func TestNewFieldRejectsBadDegrees(t *testing.T) {
	for _, n := range []int{0, -32, 33, 31, 100} {
		if _, err := NewField(n); err == nil {
			t.Errorf("NewField(%d) accepted", n)
		}
	}
}

func TestNewFieldCached(t *testing.T) {
	a, err := NewField(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewField(64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("field not cached")
	}
}

func TestFieldWithPolyValidates(t *testing.T) {
	if _, err := FieldWithPoly([]int{8, 4, 3, 1, 0}); err != nil {
		t.Errorf("valid poly rejected: %v", err)
	}
	bad := [][]int{
		{8, 1, 0},    // reducible
		{8, 4, 4, 0}, // not descending
		{8, 4},       // missing constant term
		{},           // empty
	}
	for _, exps := range bad {
		if _, err := FieldWithPoly(exps); err == nil {
			t.Errorf("bad poly %v accepted", exps)
		}
	}
}

// mulNaive is a reference multiplication using bit-at-a-time reduction.
func mulNaive(f *Field, a, b []uint64) []uint64 {
	n := f.N
	acc := make([]uint64, f.Words()+1)
	cur := make([]uint64, f.Words()+1)
	copy(cur, a)
	for i := 0; i < n; i++ {
		if b[i/64]>>(uint(i)%64)&1 == 1 {
			for j := range acc {
				acc[j] ^= cur[j]
			}
		}
		// cur <<= 1 mod f
		carry := uint64(0)
		for j := range cur {
			next := cur[j] >> 63
			cur[j] = cur[j]<<1 | carry
			carry = next
		}
		if cur[n/64]>>(uint(n)%64)&1 == 1 || (n%64 == 0 && carry == 1) {
			// subtract f
			if n%64 == 0 {
				// bit n is the carry
			}
			clearBit(cur, n)
			for _, e := range f.exps[1:] {
				flipBit(cur, e)
			}
		}
	}
	out := make([]uint64, f.Words())
	copy(out, acc[:f.Words()])
	if r := uint(n) & 63; r != 0 {
		out[f.Words()-1] &= (1 << r) - 1
	}
	return out
}

func randElem(f *Field, r *rng.SplitMix64) []uint64 {
	e := make([]uint64, f.Words())
	for i := range e {
		e[i] = r.Uint64()
	}
	if rem := uint(f.N) & 63; rem != 0 {
		e[f.Words()-1] &= (1 << rem) - 1
	}
	return e
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMulMatchesNaive(t *testing.T) {
	r := rng.NewSplitMix64(1)
	for _, n := range []int{32, 64, 96, 128} {
		f, err := NewField(n)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			a := randElem(f, r)
			b := randElem(f, r)
			got := f.Mul(a, b)
			want := mulNaive(f, a, b)
			if !eq(got, want) {
				t.Fatalf("n=%d trial %d: Mul mismatch\n got %x\nwant %x", n, trial, got, want)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	f, _ := NewField(128)
	r := rng.NewSplitMix64(2)
	one := f.One()
	for i := 0; i < 10; i++ {
		a := randElem(f, r)
		if !eq(f.Mul(a, one), a) {
			t.Fatal("a*1 != a")
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	f, _ := NewField(96)
	r := rng.NewSplitMix64(3)
	for i := 0; i < 10; i++ {
		a, b, c := randElem(f, r), randElem(f, r), randElem(f, r)
		if !eq(f.Mul(a, b), f.Mul(b, a)) {
			t.Fatal("not commutative")
		}
		if !eq(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c))) {
			t.Fatal("not associative")
		}
		// a*(b+c) == a*b + a*c
		bc := make([]uint64, len(b))
		for j := range b {
			bc[j] = b[j] ^ c[j]
		}
		lhs := f.Mul(a, bc)
		ab := f.Mul(a, b)
		ac := f.Mul(a, c)
		rhs := make([]uint64, len(ab))
		for j := range ab {
			rhs[j] = ab[j] ^ ac[j]
		}
		if !eq(lhs, rhs) {
			t.Fatal("not distributive")
		}
	}
}

func TestSquareMatchesMul(t *testing.T) {
	r := rng.NewSplitMix64(4)
	for _, n := range []int{32, 64, 160, 1024} {
		f, err := NewField(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			a := randElem(f, r)
			if !eq(f.Square(a), f.Mul(a, a)) {
				t.Fatalf("n=%d: Square != Mul(a,a)", n)
			}
		}
	}
}

func TestFermat(t *testing.T) {
	// In GF(2^n), a^(2^n) == a for all a.
	f, _ := NewField(64)
	r := rng.NewSplitMix64(5)
	for i := 0; i < 5; i++ {
		a := randElem(f, r)
		cur := a
		for j := 0; j < f.N; j++ {
			cur = f.Square(cur)
		}
		if !eq(cur, a) {
			t.Fatal("a^(2^n) != a — the polynomial is not of degree n or reduction is broken")
		}
	}
}

func TestNoZeroDivisors(t *testing.T) {
	// A field has no zero divisors: a,b nonzero => a*b nonzero.
	f, _ := NewField(32)
	r := rng.NewSplitMix64(6)
	zero := make([]uint64, f.Words())
	for i := 0; i < 200; i++ {
		a, b := randElem(f, r), randElem(f, r)
		if eq(a, zero) || eq(b, zero) {
			continue
		}
		if eq(f.Mul(a, b), zero) {
			t.Fatalf("zero divisor found: %x * %x", a, b)
		}
	}
}

// Property: (a*b)*c == a*(b*c) for random 64-bit field elements.
func TestPropertyAssociativity64(t *testing.T) {
	f, _ := NewField(64)
	g := func(x, y, z uint64) bool {
		a, b, c := []uint64{x}, []uint64{y}, []uint64{z}
		return eq(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c)))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestPrimeFactors(t *testing.T) {
	cases := map[int][]int{
		32:   {2},
		96:   {2, 3},
		1024: {2},
		160:  {2, 5},
		1056: {2, 3, 11},
	}
	for n, want := range cases {
		got := primeFactors(n)
		if len(got) != len(want) {
			t.Errorf("primeFactors(%d) = %v, want %v", n, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("primeFactors(%d) = %v, want %v", n, got, want)
			}
		}
	}
}

func BenchmarkMul1024(b *testing.B) {
	f, err := NewField(1024)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewSplitMix64(1)
	x := randElem(f, r)
	y := randElem(f, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(x, y)
	}
}

func BenchmarkMul4096(b *testing.B) {
	f, err := NewField(4096)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewSplitMix64(1)
	x := randElem(f, r)
	y := randElem(f, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mul(x, y)
	}
}

func BenchmarkFieldSearch2048(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fieldCache.Delete(2048)
		if _, err := NewField(2048); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKnownPolyTable(t *testing.T) {
	// Every table entry must be well-formed and genuinely irreducible
	// (the table is a cache of findIrreducible results, so this guards
	// against typos corrupting the fast path).
	if testing.Short() {
		t.Skip("short mode")
	}
	for n, exps := range knownPolys {
		if n > 1024 {
			continue // the big ones take seconds each; spot-checked below
		}
		if exps[0] != n || exps[len(exps)-1] != 0 {
			t.Errorf("table entry %d malformed: %v", n, exps)
			continue
		}
		if !Irreducible(exps) {
			t.Errorf("table entry %d is reducible: %v", n, exps)
		}
	}
	if !Irreducible(knownPolys[2048]) {
		t.Error("table entry 2048 is reducible")
	}
}

func TestMul64MatchesMul(t *testing.T) {
	f, err := NewField(64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {1, ^uint64(0)}, {^uint64(0), ^uint64(0)},
		{1 << 63, 2}, {1 << 63, 1 << 63}, {0x10, 0x123456789abcdef0},
	}
	r := rng.NewSplitMix64(0x64646464)
	for i := 0; i < 2000; i++ {
		cases = append(cases, struct{ a, b uint64 }{r.Uint64(), r.Uint64()})
	}
	for _, c := range cases {
		want := f.Mul([]uint64{c.a}, []uint64{c.b})[0]
		if got := f.mul64(c.a, c.b); got != want {
			t.Fatalf("mul64(%#x, %#x) = %#x, Mul says %#x", c.a, c.b, got, want)
		}
	}
}
