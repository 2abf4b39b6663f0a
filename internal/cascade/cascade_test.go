package cascade

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"qkd/internal/bitarray"
	"qkd/internal/rng"
)

// memMessenger is a minimal in-memory duplex transport for tests.
type memMessenger struct {
	out chan<- []byte
	in  <-chan []byte
}

func (m *memMessenger) Send(p []byte) error {
	q := make([]byte, len(p))
	copy(q, p)
	m.out <- q
	return nil
}

func (m *memMessenger) Recv() ([]byte, error) { return <-m.in, nil }

func memPair() (Messenger, Messenger) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	return &memMessenger{out: ab, in: ba}, &memMessenger{out: ba, in: ab}
}

// noisyPair builds a random reference string of n bits and a copy with
// exactly errs random single-bit errors.
func noisyPair(seed uint64, n, errs int) (ref, noisy *bitarray.BitArray) {
	r := rng.NewSplitMix64(seed)
	ref = r.Bits(n)
	noisy = ref.Clone()
	flipped := map[int]bool{}
	for len(flipped) < errs {
		i := r.Intn(n)
		if !flipped[i] {
			flipped[i] = true
			noisy.Flip(i)
		}
	}
	return ref, noisy
}

// run executes a protocol end to end, returning the corrector's result
// and the reference's disclosed count.
func run(t *testing.T, p Protocol, ref, noisy *bitarray.BitArray) (*Result, int) {
	t.Helper()
	ma, mb := memPair()
	var refDisclosed int
	var refErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		refDisclosed, refErr = p.RunReference(ma, ref)
	}()
	res, err := p.RunCorrect(mb, noisy)
	wg.Wait()
	if err != nil {
		t.Fatalf("%s corrector: %v", p.Name(), err)
	}
	if refErr != nil {
		t.Fatalf("%s reference: %v", p.Name(), refErr)
	}
	return res, refDisclosed
}

func protocols(qber float64) []Protocol {
	return []Protocol{
		NewBBN(1),
		NewClassic(qber, 2),
		NewBlockParity(64),
	}
}

func TestAllProtocolsCorrectErrors(t *testing.T) {
	for _, errs := range []int{0, 1, 2, 7, 40} {
		for _, p := range protocols(float64(errs+1) / 4096) {
			ref, noisy := noisyPair(uint64(errs)*7+1, 4096, errs)
			res, _ := run(t, p, ref, noisy)
			if p.Name() == NewBlockParity(64).Name() && errs > 1 {
				// The baseline may legitimately leave residual errors;
				// only require it not to diverge.
				continue
			}
			if !res.Corrected.Equal(ref) {
				t.Errorf("%s with %d errors: %d residual",
					p.Name(), errs, res.Corrected.HammingDistance(ref))
			}
		}
	}
}

func TestBBNZeroErrorsLowDisclosure(t *testing.T) {
	// The protocol is adaptive: with no errors it must disclose only
	// one round of subset parities.
	p := NewBBN(3)
	ref, noisy := noisyPair(5, 4096, 0)
	res, _ := run(t, p, ref, noisy)
	if res.Flips != 0 {
		t.Errorf("flipped %d bits on identical strings", res.Flips)
	}
	if res.Disclosed != p.Subsets {
		t.Errorf("disclosed %d bits, want exactly %d (one clean round)", res.Disclosed, p.Subsets)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
}

func TestBBNFindsExactErrorCount(t *testing.T) {
	// With random (non-adversarial) errors, the number of flips must
	// equal the number of injected errors (otherwise it corrected a
	// non-error, which other flips then must undo — wasteful but legal;
	// net Hamming distance must be zero either way).
	for _, errs := range []int{1, 5, 25} {
		p := NewBBN(uint64(errs))
		ref, noisy := noisyPair(uint64(errs)*13+11, 4096, errs)
		res, _ := run(t, p, ref, noisy)
		if !res.Corrected.Equal(ref) {
			t.Fatalf("%d errors: not corrected", errs)
		}
		if res.Flips < errs {
			t.Errorf("%d errors but only %d flips", errs, res.Flips)
		}
	}
}

func TestBBNHighErrorRate(t *testing.T) {
	// "It will accurately detect and correct a large number of errors
	// (up to some limit) even if that number is well above the
	// historical average": 11 % QBER on 4096 bits = 450 errors.
	p := NewBBN(9)
	ref, noisy := noisyPair(77, 4096, 450)
	res, _ := run(t, p, ref, noisy)
	if !res.Corrected.Equal(ref) {
		t.Errorf("450 errors: %d residual", res.Corrected.HammingDistance(ref))
	}
}

func TestBBNDisclosureGrowsWithErrors(t *testing.T) {
	p1 := NewBBN(11)
	ref1, noisy1 := noisyPair(101, 4096, 4)
	low, _ := run(t, p1, ref1, noisy1)

	p2 := NewBBN(11)
	ref2, noisy2 := noisyPair(102, 4096, 200)
	high, _ := run(t, p2, ref2, noisy2)

	if high.Disclosed <= low.Disclosed {
		t.Errorf("disclosure not adaptive: %d bits for 4 errors, %d for 200",
			low.Disclosed, high.Disclosed)
	}
}

func TestBBNDisclosedMatchesReferenceCount(t *testing.T) {
	// Both sides must account the same number of disclosed parities.
	p := NewBBN(13)
	ref, noisy := noisyPair(103, 2048, 20)
	res, refDisclosed := run(t, p, ref, noisy)
	if res.Disclosed != refDisclosed {
		t.Errorf("corrector counted %d disclosed, reference %d", res.Disclosed, refDisclosed)
	}
}

func TestClassicDisclosedMatchesReferenceCount(t *testing.T) {
	p := NewClassic(0.01, 14)
	ref, noisy := noisyPair(104, 2048, 20)
	res, refDisclosed := run(t, p, ref, noisy)
	if res.Disclosed != refDisclosed {
		t.Errorf("corrector counted %d disclosed, reference %d", res.Disclosed, refDisclosed)
	}
}

func TestClassicCorrectsAtVariousRates(t *testing.T) {
	for _, qber := range []float64{0.01, 0.03, 0.07, 0.11} {
		n := 8192
		errs := int(qber * float64(n))
		p := NewClassic(qber, 15)
		ref, noisy := noisyPair(uint64(errs), n, errs)
		res, _ := run(t, p, ref, noisy)
		if !res.Corrected.Equal(ref) {
			t.Errorf("qber %.2f: %d residual errors", qber,
				res.Corrected.HammingDistance(ref))
		}
	}
}

func TestClassicUnderestimatedPrior(t *testing.T) {
	// Prior says 1 % but the string has 8 %: cascade's later passes must
	// still mop up nearly everything.
	n := 8192
	p := NewClassic(0.01, 16)
	ref, noisy := noisyPair(321, n, n*8/100)
	res, _ := run(t, p, ref, noisy)
	resid := res.Corrected.HammingDistance(ref)
	if resid > 4 {
		t.Errorf("underestimated prior left %d residual errors", resid)
	}
}

func TestBlockParityLeavesPairedErrors(t *testing.T) {
	// Two errors in the same block are invisible to the baseline.
	n := 1024
	ref := rng.NewSplitMix64(55).Bits(n)
	noisy := ref.Clone()
	noisy.Flip(10)
	noisy.Flip(20) // same 64-bit block as 10
	p := NewBlockParity(64)
	res, _ := run(t, p, ref, noisy)
	if res.Corrected.Equal(ref) {
		t.Error("block-parity corrected paired errors — it should not be able to")
	}
	if d := res.Corrected.HammingDistance(ref); d != 2 {
		t.Errorf("expected exactly the 2 paired errors to remain, got %d", d)
	}
}

func TestBlockParityFixesIsolatedErrors(t *testing.T) {
	n := 1024
	ref := rng.NewSplitMix64(56).Bits(n)
	noisy := ref.Clone()
	noisy.Flip(10)
	noisy.Flip(200)
	noisy.Flip(900)
	p := NewBlockParity(64)
	res, _ := run(t, p, ref, noisy)
	if !res.Corrected.Equal(ref) {
		t.Errorf("isolated errors not fixed: %d residual", res.Corrected.HammingDistance(ref))
	}
	if res.Flips != 3 {
		t.Errorf("flips = %d, want 3", res.Flips)
	}
}

func TestCascadeBeatsBaselineOnResidual(t *testing.T) {
	// At equal error burden, Cascade must end with fewer residual
	// errors than the fixed-partition baseline.
	n := 8192
	errs := 200
	ref, noisy := noisyPair(777, n, errs)

	bbnRes, _ := run(t, NewBBN(17), ref, noisy.Clone())
	baseRes, _ := run(t, NewBlockParity(64), ref, noisy.Clone())

	bbnResid := bbnRes.Corrected.HammingDistance(ref)
	baseResid := baseRes.Corrected.HammingDistance(ref)
	if bbnResid != 0 {
		t.Errorf("BBN cascade left %d residual errors", bbnResid)
	}
	if baseResid == 0 {
		t.Logf("note: baseline got lucky (no paired errors) this seed")
	}
	if bbnResid > baseResid {
		t.Errorf("cascade (%d residual) worse than baseline (%d)", bbnResid, baseResid)
	}
}

func TestTinyKeys(t *testing.T) {
	for _, n := range []int{1, 2, 8, 33} {
		ref, noisy := noisyPair(uint64(n), n, 0)
		for _, p := range protocols(0.01) {
			res, _ := run(t, p, ref, noisy)
			if !res.Corrected.Equal(ref) {
				t.Errorf("%s failed on %d-bit identical keys", p.Name(), n)
			}
		}
	}
}

func TestTinyKeysWithError(t *testing.T) {
	for _, n := range []int{2, 8, 33} {
		ref, noisy := noisyPair(uint64(n)+100, n, 1)
		res, _ := run(t, NewBBN(uint64(n)), ref, noisy)
		if !res.Corrected.Equal(ref) {
			t.Errorf("BBN failed on %d-bit key with 1 error", n)
		}
	}
}

// Property test: for random error patterns up to 10 %, BBN cascade
// converges to the reference string.
func TestPropertyBBNConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, errFrac uint8) bool {
		n := 2048
		errs := int(errFrac) * n / 2550 // 0..10 %
		ref, noisy := noisyPair(seed, n, errs)
		p := NewBBN(seed ^ 0xABCD)
		ma, mb := memPair()
		go p.RunReference(ma, ref)
		res, err := p.RunCorrect(mb, noisy)
		return err == nil && res.Corrected.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property test: disclosed counts agree between the two sides for the
// classic protocol across error burdens.
func TestPropertyDisclosedSymmetry(t *testing.T) {
	f := func(seed uint64, errCount uint8) bool {
		n := 1024
		errs := int(errCount) % 64
		ref, noisy := noisyPair(seed, n, errs)
		p := NewClassic(0.02, seed)
		ma, mb := memPair()
		type refOut struct {
			d   int
			err error
		}
		ch := make(chan refOut, 1)
		go func() {
			d, err := p.RunReference(ma, ref)
			ch <- refOut{d, err}
		}()
		res, err := p.RunCorrect(mb, noisy)
		ro := <-ch
		if err != nil || ro.err != nil {
			return false
		}
		return res.Disclosed == ro.d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// countingMessenger counts the messages sent through it.
type countingMessenger struct {
	Messenger
	sent *atomic.Int64
}

func (c countingMessenger) Send(p []byte) error {
	c.sent.Add(1)
	return c.Messenger.Send(p)
}

// TestBBNAllocs pins BBN's steady state: one 4096-bit batch at 5 %
// QBER, both sides together, allocates only per-run values — the
// protocol, the corrected copy, the Result and the reference's
// goroutine — and nothing per round, wave or message beyond the test
// messenger's own copy of each message, which is discounted. The run
// state comes from a sync.Pool, which drops Puts at random under the
// race detector, so race builds skip the pin.
func TestBBNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const bound = 64
	ref, noisy := noisyPair(1002, 4096, 204)
	var sent atomic.Int64
	ma, mb := memPair()
	ma, mb = countingMessenger{ma, &sent}, countingMessenger{mb, &sent}
	errc := make(chan error, 1)
	batch := func() {
		p := NewBBN(42)
		go func() {
			_, err := p.RunReference(ma, ref)
			errc <- err
		}()
		res, err := p.RunCorrect(mb, noisy)
		if refErr := <-errc; err == nil {
			err = refErr
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Corrected.Equal(ref) {
			t.Fatal("batch not corrected")
		}
	}
	for i := 0; i < 3; i++ {
		batch()
	}
	sent.Store(0)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, batch)
	msgs := float64(sent.Load()) / (runs + 1) // AllocsPerRun adds a warm-up call
	got := allocs - msgs
	t.Logf("BBN batch: %.0f allocations beyond %.0f message copies", got, msgs)
	if got > bound {
		t.Errorf("BBN batch: %.0f allocations beyond %.0f message copies, want <= %d", got, msgs, bound)
	}
}

func BenchmarkBBN4096QBER5(b *testing.B) {
	n := 4096
	errs := n * 5 / 100
	type pair struct{ ref, noisy *bitarray.BitArray }
	inputs := make([]pair, 16)
	for i := range inputs {
		inputs[i].ref, inputs[i].noisy = noisyPair(uint64(i), n, errs)
	}
	ma, mb := memPair()
	errc := make(chan error, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		p := NewBBN(uint64(i))
		go func() {
			_, err := p.RunReference(ma, in.ref)
			errc <- err
		}()
		_, err := p.RunCorrect(mb, in.noisy)
		// The next batch shares the messengers, so this one's reference
		// must have read its last message first.
		if refErr := <-errc; err == nil {
			err = refErr
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassic4096QBER5(b *testing.B) {
	n := 4096
	errs := n * 5 / 100
	for i := 0; i < b.N; i++ {
		ref, noisy := noisyPair(uint64(i), n, errs)
		p := NewClassic(0.05, uint64(i))
		ma, mb := memPair()
		go p.RunReference(ma, ref)
		if _, err := p.RunCorrect(mb, noisy); err != nil {
			b.Fatal(err)
		}
	}
}
