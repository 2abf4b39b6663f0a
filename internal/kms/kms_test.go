package kms

import (
	"errors"
	"math/bits"
	"sync"
	"testing"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/keypool"
	"qkd/internal/rng"
)

// mirrored builds the two endpoints of a link: identical configs, and
// a pump that ingests identical bits into both.
func mirrored(cfg Config) (*Service, *Service, func(gen *rng.SplitMix64, n int)) {
	a, b := New(cfg), New(cfg)
	pump := func(gen *rng.SplitMix64, n int) {
		bits := gen.Bits(n)
		a.Ingest(bits.Clone())
		b.Ingest(bits)
	}
	return a, b, pump
}

func TestStoreConservationConcurrent(t *testing.T) {
	// Concurrent depositors and TryConsume consumers on one PoolView:
	// every deposited bit is withdrawn exactly once.
	s := New(Config{})
	v := s.PoolView(ClassRekey)
	const total = 1 << 18
	const chunk = 256
	var dwg sync.WaitGroup
	for d := 0; d < 4; d++ {
		dwg.Add(1)
		go func(d int) {
			defer dwg.Done()
			gen := rng.NewSplitMix64(uint64(d) + 1)
			for i := 0; i < total/4/chunk; i++ {
				v.Deposit(gen.Bits(chunk))
			}
		}(d)
	}
	var got atomic64
	var cwg sync.WaitGroup
	for c := 0; c < 16; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				bits, err := v.TryConsume(64)
				if err != nil {
					if got.load() >= total {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				if bits.Len() != 64 {
					t.Errorf("short withdrawal: %d", bits.Len())
					return
				}
				got.add(64)
			}
		}()
	}
	dwg.Wait()
	cwg.Wait()
	if got.load() != total {
		t.Fatalf("consumed %d of %d deposited bits", got.load(), total)
	}
	if v.Available() != 0 {
		t.Fatalf("leftover %d", v.Available())
	}
	dep, con := v.Stats()
	if dep != total || con != total {
		t.Fatalf("stats %d/%d", dep, con)
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) {
	a.mu.Lock()
	a.v += n
	a.mu.Unlock()
}
func (a *atomic64) load() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

func TestStoreAllOrNothing(t *testing.T) {
	s := New(Config{})
	v := s.PoolView(ClassRekey)
	v.Deposit(bitarray.New(100))
	if _, err := v.TryConsume(101); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if v.Available() != 100 {
		t.Fatalf("partial consumption: %d left", v.Available())
	}
	if _, err := v.TryConsume(v.Available()); err != nil {
		t.Fatal(err)
	}
	if v.Available() != 0 {
		t.Fatalf("drain left %d", v.Available())
	}
	s.Close()
	if _, err := v.TryConsume(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

func TestStreamBitExactAcrossEndpoints(t *testing.T) {
	// The allocator side claims in one order, the follower in another;
	// every (stream, seq) ticket must resolve to identical bits.
	a, b, pump := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	stA, err := a.NewStream("otp/7", 128, ClassOTP)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.NewStream("otp/7", 128, ClassOTP)
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewSplitMix64(11)
	pump(gen, 4096)

	const blocks = 16
	tickets := make([]Ticket, blocks)
	want := make([]*bitarray.BitArray, blocks)
	for i := range tickets {
		tk, bits, err := stA.Next(1, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Seq != uint64(i) {
			t.Fatalf("seq %d, want %d", tk.Seq, i)
		}
		tickets[i] = tk
		want[i] = bits
	}
	// Follower claims in reverse order — order independence is the
	// whole point.
	for i := blocks - 1; i >= 0; i-- {
		bits, err := stB.Claim(tickets[i], time.Second, nil)
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		if !bits.Equal(want[i]) {
			t.Fatalf("block (otp/7, %d) differs between endpoints", tickets[i].Seq)
		}
	}
}

// TestLedgerCompactionAmortized drains an 8 Mbit backlog with 576-bit
// claims. The ledger is compacted only once its spent prefix is at
// least as long as its live part, so it stays within twice its live
// bits plus 2^15, and a drain compacts O(log backlog) times. Blocks
// claimed on both mirrors stay bit-identical across every compaction.
func TestLedgerCompactionAmortized(t *testing.T) {
	const backlog, claimBits = 8 << 20, 576
	a, b, pump := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	stA, _ := a.NewStream("drain", claimBits, ClassOTP)
	stB, _ := b.NewStream("drain", claimBits, ClassOTP)
	pump(rng.NewSplitMix64(21), backlog)

	compactions := 0
	for i := 0; i < backlog/claimBits; i++ {
		base := b.ledgerBase
		tk, want, err := stA.Next(1, time.Second, nil)
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		got, err := stB.Claim(tk, time.Second, nil)
		if err != nil {
			t.Fatalf("mirror claim %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("block %d differs between mirrors (ledger base %d -> %d)", tk.Seq, base, b.ledgerBase)
		}
		if b.ledgerBase != base {
			compactions++
		}
		for _, s := range []*Service{a, b} {
			live := int(s.ledgerEnd.Load() - s.frontier)
			if n := s.ledger.Len(); n > 2*live+1<<15 {
				t.Fatalf("after claim %d: ledger holds %d bits for %d live", i, n, live)
			}
		}
	}
	// Halving the live part per compaction, down to the 2^15 floor.
	if limit := bits.Len(backlog>>15) + 1; compactions > limit {
		t.Errorf("drain compacted %d times, want at most %d", compactions, limit)
	}
	t.Logf("%d compactions over a %d-bit drain", compactions, backlog)
}

func TestClaimBlocksUntilPeerCoverage(t *testing.T) {
	// The follower may be asked for a ticket before its own deposits
	// caught up; the claim blocks, then resolves bit-exact.
	a, b, pump := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	stA, _ := a.NewStream("s", 64, ClassRekey)
	stB, _ := b.NewStream("s", 64, ClassRekey)

	gen := rng.NewSplitMix64(3)
	bits := gen.Bits(256)
	a.Ingest(bits.Clone()) // only A has the key so far
	tk, wantBits, err := stA.Next(2, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		bits *bitarray.BitArray
		err  error
	}
	done := make(chan res, 1)
	go func() {
		got, err := stB.Claim(tk, 5*time.Second, nil)
		done <- res{got, err}
	}()
	select {
	case <-done:
		t.Fatal("claim resolved before the follower had the key")
	case <-time.After(30 * time.Millisecond):
	}
	b.Ingest(bits) // mirror catches up
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.bits.Equal(wantBits) {
			t.Fatal("claimed bits differ between endpoints")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("claim never resolved after coverage")
	}
	_ = pump
}

func TestDoubleClaimRejected(t *testing.T) {
	a := New(Config{})
	defer a.Close()
	st, _ := a.NewStream("s", 64, ClassOTP)
	a.Ingest(rng.NewSplitMix64(1).Bits(512))
	tk, _, err := st.Next(1, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Claim(tk, 0, nil); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("double claim: %v", err)
	}
	// Release of a spent ticket is a harmless no-op.
	st.Release(tk)
	// A released ticket cannot be claimed afterwards either.
	tk2, err := st.AllocateWait(1, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Release(tk2)
	if _, err := st.Claim(tk2, 0, nil); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("claim after release: %v", err)
	}
}

func TestQoSPriorityAndFIFO(t *testing.T) {
	// A large auth request queues first; then a rekey and an OTP
	// request arrive. Deposits must serve OTP, then rekey, then auth —
	// and within a class, arrival order.
	s := New(Config{ShedDelay: time.Hour}) // admission out of the way
	defer s.Close()
	auth, _ := s.NewStream("auth", 64, ClassAuth)
	rekey, _ := s.NewStream("rekey", 64, ClassRekey)
	otp, _ := s.NewStream("otp", 64, ClassOTP)

	type done struct {
		who string
		tk  Ticket
	}
	order := make(chan done, 8)
	launch := func(who string, st *Stream, blocks int) {
		go func() {
			tk, err := st.AllocateWait(blocks, 10*time.Second, nil)
			if err != nil {
				t.Errorf("%s: %v", who, err)
			}
			order <- done{who, tk}
		}()
		// Wait until the request is queued so arrival order is fixed.
		for {
			s.mu.Lock()
			queued := 0
			for c := range s.queues {
				queued += len(s.queues[c])
			}
			s.mu.Unlock()
			if queued >= 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	gen := rng.NewSplitMix64(5)
	launch("auth-big", auth, 8) // 512 bits, queued first
	launch("rekey-1", rekey, 2)
	launch("otp-1", otp, 1)
	time.Sleep(10 * time.Millisecond)

	s.Ingest(gen.Bits(64)) // covers exactly the OTP block
	if d := <-order; d.who != "otp-1" {
		t.Fatalf("first grant went to %s, want otp-1", d.who)
	}
	s.Ingest(gen.Bits(128))
	if d := <-order; d.who != "rekey-1" {
		t.Fatalf("second grant went to %s, want rekey-1", d.who)
	}
	// Auth still short: 512 needed. A later small rekey request must
	// NOT overtake... it is higher class, so it does; but a later
	// *auth* request must not.
	launch("auth-small", auth, 1)
	s.Ingest(gen.Bits(256)) // 256 of 512: auth-big still blocked
	select {
	case d := <-order:
		t.Fatalf("%s served before auth-big was whole", d.who)
	case <-time.After(30 * time.Millisecond):
	}
	s.Ingest(gen.Bits(256 + 64)) // completes auth-big, then auth-small
	// Grant order is proven by ledger offsets (the channel only
	// reflects goroutine scheduling): FIFO within the class means the
	// earlier, larger request owns the earlier range.
	got := map[string]Ticket{}
	for i := 0; i < 2; i++ {
		d := <-order
		got[d.who] = d.tk
	}
	big, small := got["auth-big"], got["auth-small"]
	if big.Bits != 512 || small.Bits != 64 {
		t.Fatalf("tickets %+v / %+v", big, small)
	}
	if big.Offset >= small.Offset {
		t.Fatalf("auth-small (offset %d) overtook auth-big (offset %d)", small.Offset, big.Offset)
	}
}

func TestAdmissionShedsOnlySheddableClasses(t *testing.T) {
	s := New(Config{ShedDelay: 10 * time.Millisecond})
	defer s.Close()
	otp, _ := s.NewStream("otp", 64, ClassOTP)
	auth, _ := s.NewStream("auth", 64, ClassAuth)

	// Establish a slow measured rate: two small deposits far apart.
	s.Ingest(rng.NewSplitMix64(1).Bits(64))
	time.Sleep(50 * time.Millisecond)
	s.Ingest(rng.NewSplitMix64(2).Bits(64))

	// Queue demand far beyond the rate: a huge OTP request (never
	// shed, so it queues)...
	otpDone := make(chan error, 1)
	go func() {
		_, err := otp.AllocateWait(1024, 2*time.Second, nil)
		otpDone <- err
	}()
	for {
		s.mu.Lock()
		queued := len(s.queues[ClassOTP])
		s.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// ...then an auth request behind it: projected wait is enormous,
	// so admission sheds it immediately.
	start := time.Now()
	_, err := auth.AllocateWait(1, 2*time.Second, nil)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("auth under overload: %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("shed was not immediate")
	}
	st := s.Stats()
	if st.Shed[ClassAuth] != 1 {
		t.Fatalf("Shed[auth] = %d", st.Shed[ClassAuth])
	}
	if st.Shed[ClassOTP] != 0 {
		t.Fatal("OTP must never be shed")
	}
	// Feed the OTP request so it completes rather than timing out.
	s.Ingest(rng.NewSplitMix64(3).Bits(1024 * 64))
	if err := <-otpDone; err != nil {
		t.Fatalf("otp request starved: %v", err)
	}
}

func TestFeedDTNCustodyAcrossOutage(t *testing.T) {
	a, b, _ := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	fa, err := a.AttachSource("relay")
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := b.AttachSource("relay")
	stA, _ := a.NewStream("s", 64, ClassOTP)
	stB, _ := b.NewStream("s", 64, ClassOTP)

	gen := rng.NewSplitMix64(9)
	chunk1, chunk2, chunk3 := gen.Bits(128), gen.Bits(128), gen.Bits(128)
	fa.Deposit(chunk1.Clone())
	fb.Deposit(chunk1)
	// Outage: deposits keep arriving but go into custody, in order.
	fa.SetUp(false)
	fb.SetUp(false)
	fa.Deposit(chunk2.Clone())
	fb.Deposit(chunk2)
	fa.Deposit(chunk3.Clone())
	fb.Deposit(chunk3)
	if a.Available() != 128 {
		t.Fatalf("outage deposits leaked through: %d", a.Available())
	}
	if fa.Buffered() != 256 {
		t.Fatalf("custody holds %d bits, want 256", fa.Buffered())
	}
	// Restore flushes custody in arrival order on both ends.
	fa.SetUp(true)
	fb.SetUp(true)
	if fa.Buffered() != 0 || a.Available() != 384 {
		t.Fatalf("flush failed: buffered %d, available %d", fa.Buffered(), a.Available())
	}
	tk, bitsA, err := stA.Next(6, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsB, err := stB.Claim(tk, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsA.Equal(bitsB) {
		t.Fatal("custody flush broke cross-endpoint agreement")
	}
	fs := fa.Stats()
	if fs.BufferedBits != 256 || fs.FlushedBits != 256 {
		t.Fatalf("feed stats %+v", fs)
	}
}

func TestStreamFractionSplitsDeterministically(t *testing.T) {
	// Every bit of every deposit reaches the ledger in arrival order, so
	// mirrored Services fed irregular chunks hold identical ledgers and
	// one ticket over all of it resolves to the concatenated deposits.
	a, b, _ := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	stA, _ := a.NewStream("all", 1, ClassOTP)
	stB, _ := b.NewStream("all", 1, ClassOTP)
	gen := rng.NewSplitMix64(4)
	want := bitarray.New(0)
	for _, n := range []int{7, 130, 64, 1, 999, 333} {
		bits := gen.Bits(n)
		want.AppendAll(bits)
		a.Ingest(bits.Clone())
		b.Ingest(bits)
	}
	total := want.Len()
	if sa, sb := a.Stats(), b.Stats(); sa.DepositedBits != uint64(total) || sb.DepositedBits != uint64(total) {
		t.Fatalf("deposited %d / %d of %d", sa.DepositedBits, sb.DepositedBits, total)
	}
	if a.Available() != total || b.Available() != total {
		t.Fatalf("Available %d / %d of %d", a.Available(), b.Available(), total)
	}
	tk, bitsA, err := stA.Next(total, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsB, err := stB.Claim(tk, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsA.Equal(want) || !bitsB.Equal(want) {
		t.Fatal("ledger does not hold the deposits in arrival order")
	}
}

func TestPoolViewKeypoolSemantics(t *testing.T) {
	s := New(Config{})
	v := s.PoolView(ClassRekey)
	var pool keypool.Pool = v // compile-time and runtime interface check

	gen := rng.NewSplitMix64(6)
	src := gen.Bits(256)
	pool.Deposit(src.Clone())
	if pool.Available() != 256 {
		t.Fatalf("Available = %d", pool.Available())
	}
	a1, err := pool.TryConsume(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pool.Consume(156, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	joined := a1.Clone()
	joined.AppendAll(a2)
	if !joined.Equal(src) {
		t.Fatal("PoolView withdrawals not FIFO over the ledger")
	}
	if _, err := pool.TryConsume(1); !errors.Is(err, keypool.ErrExhausted) {
		t.Fatalf("exhausted: %v", err)
	}
	start := time.Now()
	if _, err := pool.Consume(64, 30*time.Millisecond); !errors.Is(err, keypool.ErrTimeout) {
		t.Fatalf("timeout: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned before deadline")
	}
	// Blocked withdrawal resolves on deposit.
	done := make(chan error, 1)
	go func() {
		_, err := pool.Consume(64, 5*time.Second)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	pool.Deposit(gen.Bits(64))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Cancel releases a blocked withdrawal.
	cancel := make(chan struct{})
	go func() {
		_, err := pool.ConsumeCancelable(128, 5*time.Second, cancel)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	if err := <-done; !errors.Is(err, keypool.ErrCanceled) {
		t.Fatalf("cancel: %v", err)
	}
	s.Close()
	if _, err := pool.Consume(1, time.Second); !errors.Is(err, keypool.ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

func TestCloseFailsQueuedRequests(t *testing.T) {
	s := New(Config{})
	otp, _ := s.NewStream("otp", 64, ClassOTP)
	stB, _ := s.NewStream("claims", 64, ClassRekey)
	allocErr := make(chan error, 1)
	go func() {
		_, err := otp.AllocateWait(4, 10*time.Second, nil)
		allocErr <- err
	}()
	claimErr := make(chan error, 1)
	go func() {
		_, err := stB.Claim(Ticket{Stream: "claims", Offset: 1 << 20, Bits: 64}, 10*time.Second, nil)
		claimErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	if err := <-allocErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued alloc: %v", err)
	}
	if err := <-claimErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending claim: %v", err)
	}
}

func TestConcurrentMixedLoadStress(t *testing.T) {
	// 200 concurrent consumers across classes against a trickling
	// depositor, under -race: exact key conservation at quiescence and
	// zero high-class failures.
	s := New(Config{ShedDelay: 5 * time.Millisecond})
	defer s.Close()

	var granted atomic64
	var wg sync.WaitGroup
	var otpFailures atomic64
	for i := 0; i < 40; i++ {
		wg.Add(1)
		st, err := s.NewStream("otp/"+string(rune('a'+i%26))+string(rune('0'+i/26)), 64, ClassOTP)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				_, bits, err := st.Next(1, 30*time.Second, nil)
				if err != nil {
					otpFailures.add(1)
					return
				}
				granted.add(uint64(bits.Len()))
			}
		}()
	}
	for i := 0; i < 160; i++ {
		wg.Add(1)
		v := s.PoolView(ClassAuth)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				bits, err := v.ConsumeCancelable(64, 200*time.Millisecond, nil)
				if err != nil {
					continue // shed or timed out: fine for low class
				}
				granted.add(uint64(bits.Len()))
			}
		}()
	}
	// Depositor: enough for all OTP demand (40*4*64 = 10240) plus some.
	gen := rng.NewSplitMix64(12)
	for i := 0; i < 100; i++ {
		s.Ingest(gen.Bits(512))
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if otpFailures.load() != 0 {
		t.Fatalf("%d high-class requests failed", otpFailures.load())
	}
	st := s.Stats()
	if got := st.ClaimedBits + st.ReleasedBits + uint64(s.Available()); got != st.DepositedBits {
		t.Fatalf("claimed %d + released %d + available %d != deposited %d",
			st.ClaimedBits, st.ReleasedBits, s.Available(), st.DepositedBits)
	}
}

func TestPoolViewTryConsumeSpansBothLanes(t *testing.T) {
	// TryConsume honors any request Available() covers — including a
	// full drain — in deposit order, and nothing past it.
	s := New(Config{})
	defer s.Close()
	v := s.PoolView(ClassRekey)
	src := rng.NewSplitMix64(8).Bits(1024)
	v.Deposit(src.Clone())
	if got := v.Available(); got != 1024 {
		t.Fatalf("Available = %d", got)
	}
	bits, err := v.TryConsume(768)
	if err != nil {
		t.Fatalf("TryConsume: %v", err)
	}
	rest, err := v.TryConsume(v.Available())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if bits.Len()+rest.Len() != 1024 || v.Available() != 0 {
		t.Fatalf("conservation: %d + %d consumed, %d left", bits.Len(), rest.Len(), v.Available())
	}
	bits.AppendAll(rest)
	if !bits.Equal(src) {
		t.Fatal("withdrawals are not the deposit in order")
	}
	// All-or-nothing holds past the balance.
	v.Deposit(rng.NewSplitMix64(9).Bits(100))
	if _, err := v.TryConsume(101); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overdraw: %v", err)
	}
	if v.Available() != 100 {
		t.Fatalf("failed overdraw consumed bits: %d left", v.Available())
	}
	// A blocking consume sees the balance on hand at once.
	if _, err := v.Consume(100, 50*time.Millisecond); err != nil {
		t.Fatalf("Consume: %v", err)
	}
}

func TestClaimRejectsImplausibleTicket(t *testing.T) {
	// A corrupted ticket offset must fail loudly, not silently push the
	// allocation cursor somewhere the ledger can never reach.
	s := New(Config{})
	defer s.Close()
	st, _ := s.NewStream("s", 64, ClassOTP)
	s.Ingest(rng.NewSplitMix64(2).Bits(256))
	bogus := Ticket{Stream: "s", Seq: 9, Offset: 1 << 60, Bits: 64}
	if _, err := st.Claim(bogus, 10*time.Millisecond, nil); !errors.Is(err, ErrTicketRange) {
		t.Fatalf("bogus claim: %v", err)
	}
	st.Release(bogus) // must also be rejected internally, not poison granted
	// Allocation still works: the cursor was not wedged.
	if _, _, err := st.Next(1, time.Second, nil); err != nil {
		t.Fatalf("allocation after bogus ticket: %v", err)
	}
}

func TestConsumeBlocksAcrossSplitDeposits(t *testing.T) {
	// A Consume larger than the balance waits in the scheduler and
	// resolves once a later deposit covers the rest, with the first
	// deposit's bits ahead of the second's.
	s := New(Config{})
	defer s.Close()
	v := s.PoolView(ClassRekey)
	first, second := rng.NewSplitMix64(1).Bits(500), rng.NewSplitMix64(2).Bits(1500)
	v.Deposit(first.Clone())
	type result struct {
		bits *bitarray.BitArray
		err  error
	}
	done := make(chan result, 1)
	go func() {
		bits, err := v.Consume(1000, 5*time.Second)
		done <- result{bits, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if v.Available() != 500 {
		t.Fatalf("blocked consume took bits early: %d left", v.Available())
	}
	v.Deposit(second.Clone())
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("blocking consume: %v", r.err)
		}
		want := first.Clone()
		want.AppendAll(second.Slice(0, 500))
		if !r.bits.Equal(want) {
			t.Fatal("blocked consume did not get the ledger in deposit order")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer stayed blocked with the balance on hand")
	}
	if v.Available() != 1000 {
		t.Fatalf("Available = %d after the grant", v.Available())
	}
}

func TestFeedFlushOrderAtomicWithRestore(t *testing.T) {
	// Deposits racing a restore must serialize behind the custody
	// flush: mirrored endpoints replay [buffered, new] in that order.
	a, b, _ := mirrored(Config{})
	defer a.Close()
	defer b.Close()
	fa, _ := a.AttachSource("f")
	fb, _ := b.AttachSource("f")
	stA, _ := a.NewStream("s", 64, ClassOTP)
	stB, _ := b.NewStream("s", 64, ClassOTP)
	gen := rng.NewSplitMix64(7)
	old, fresh := gen.Bits(128), gen.Bits(128)
	fa.SetUp(false)
	fb.SetUp(false)
	fa.Deposit(old.Clone())
	fb.Deposit(old)
	// Restore and a racing deposit on each side, in opposite orders.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fa.SetUp(true); fa.Deposit(fresh.Clone()) }()
	go func() { defer wg.Done(); fb.SetUp(true); fb.Deposit(fresh.Clone()) }()
	wg.Wait()
	tk, bitsA, err := stA.Next(4, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	bitsB, err := stB.Claim(tk, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsA.Equal(bitsB) {
		t.Fatal("restore/deposit race reordered the mirrored ledgers")
	}
	if !bitsA.Slice(0, 128).Equal(old) {
		t.Fatal("custody bits were not flushed ahead of the racing deposit")
	}
}

func TestReleaseAheadOfLedgerDoesNotPanicPrune(t *testing.T) {
	// A follower may Release (or time out a claim of) a ticket whose
	// range its own deposits have not covered yet; once the frontier
	// passes the deposited ledger, pruning must clamp instead of
	// slicing past the end.
	s := New(Config{})
	defer s.Close()
	st, _ := s.NewStream("s", 64, ClassRekey)
	s.Ingest(rng.NewSplitMix64(3).Bits(40000))
	st.Release(Ticket{Stream: "s", Seq: 0, Offset: 0, Bits: 50000}) // ahead of local deposits
	// Subsequent claims against deposited ledger still work.
	s.Ingest(rng.NewSplitMix64(4).Bits(20000))
	if _, err := st.Claim(Ticket{Stream: "s", Seq: 782, Offset: 50048, Bits: 64}, time.Second, nil); err != nil {
		t.Fatalf("claim after ahead-of-ledger release: %v", err)
	}
}

func TestPressureSignalRisesAndFalls(t *testing.T) {
	s := New(Config{ShedDelay: 10 * time.Millisecond})
	defer s.Close()
	if p := s.Pressure(); p != 0 {
		t.Fatalf("idle pressure = %v, want 0", p)
	}
	// Backlog before any deposit: capacity unknown, pressure maximal.
	otp, _ := s.NewStream("otp", 64, ClassOTP)
	done := make(chan error, 1)
	go func() {
		_, err := otp.AllocateWait(4, 5*time.Second, nil)
		done <- err
	}()
	for {
		s.mu.Lock()
		queued := s.queuedBits[ClassOTP]
		s.mu.Unlock()
		if queued > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if p := s.Pressure(); p < 1 {
		t.Fatalf("pressure with unmeasured backlog = %v, want >= 1", p)
	}
	// Feeding the backlog drains the queue and the signal falls back.
	s.Ingest(rng.NewSplitMix64(4).Bits(512))
	if err := <-done; err != nil {
		t.Fatalf("backlogged OTP request: %v", err)
	}
	if p := s.Pressure(); p >= 1 {
		t.Fatalf("pressure after drain = %v, want < 1", p)
	}
}

func TestDegradedModeBoundsStarvedWait(t *testing.T) {
	// The early-pressure half of admission control: a request whose
	// projected wait sits past half the shed horizon (but under the
	// horizon, so it is not shed) is admitted with its wait clamped to
	// 2x the horizon — a fast bounded failure the caller's backoff can
	// consume, instead of pinning the full 30s deadline on a starved
	// queue.
	s := New(Config{ShedDelay: 50 * time.Millisecond}) // rekey horizon 400ms
	defer s.Close()
	rk, _ := s.NewStream("rekey", 64, ClassRekey)
	otp, _ := s.NewStream("otp", 300, ClassOTP)
	// Pin the measured deposit rate (white-box) so the projected wait
	// is deterministic rather than wall-clock dependent.
	s.mu.Lock()
	s.rate.primed = true
	s.rate.rate = 1000 // bits per second
	s.mu.Unlock()
	// 300 queued OTP bits ahead: a 64-bit rekey request projects
	// 364ms — inside the degraded zone (200ms, 400ms].
	otpDone := make(chan error, 1)
	go func() {
		_, err := otp.AllocateWait(1, 10*time.Second, nil)
		otpDone <- err
	}()
	for {
		s.mu.Lock()
		queued := s.queuedBits[ClassOTP]
		s.mu.Unlock()
		if queued == 300 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, err := rk.AllocateWait(1, 30*time.Second, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("degraded rekey request: %v, want ErrTimeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("degraded mode did not bound the wait: %v (deadline was 30s)", elapsed)
	}
	st := s.Stats()
	if st.Degraded[ClassRekey] != 1 {
		t.Errorf("Degraded[rekey] = %d, want 1", st.Degraded[ClassRekey])
	}
	if st.Shed[ClassRekey] != 0 {
		t.Errorf("Shed[rekey] = %d, want 0 (degraded is admitted, not shed)", st.Shed[ClassRekey])
	}
	// The backlog that caused the pressure still completes when fed.
	s.Ingest(rng.NewSplitMix64(5).Bits(512))
	if err := <-otpDone; err != nil {
		t.Fatalf("backlogged OTP request after feed: %v", err)
	}
}

func TestRateEstimatorSeedsFromFirstSample(t *testing.T) {
	// Cold-start bias fix: the first measured interval must set the
	// estimate outright, not ease toward it from zero by alpha. With a
	// 250ms half-life and 100ms between deposits, the old behavior left
	// the estimate at ~28% of the true rate after one sample — enough
	// for admission control to shed early traffic against a phantom
	// shortage.
	r := rateEstimator{halfLife: 0.25}
	t0 := time.Unix(0, 0)
	r.observe(1000, t0) // priming sample: starts the clock
	if got := r.perSecond(); got != 0 {
		t.Fatalf("rate after priming sample = %v, want 0", got)
	}
	r.observe(1000, t0.Add(100*time.Millisecond))
	if got := r.perSecond(); got != 10000 {
		t.Fatalf("rate after first measured interval = %v, want 10000 (seeded, not alpha-blended)", got)
	}
	// Subsequent samples blend as before: a half-rate sample moves the
	// estimate partway down, not all the way.
	r.observe(500, t0.Add(200*time.Millisecond))
	if got := r.perSecond(); got <= 5000 || got >= 10000 {
		t.Fatalf("rate after EWMA sample = %v, want in (5000, 10000)", got)
	}
}

func TestColdStartAdmitsEarlyBurst(t *testing.T) {
	// End-to-end view of the same fix: after a single priming deposit
	// pair, the projected wait uses the true deposit rate, so a burst
	// that capacity can clear inside the horizon is admitted rather
	// than shed.
	s := New(Config{ShedDelay: time.Second})
	defer s.Close()
	st, _ := s.NewStream("auth", 64, ClassAuth)
	gen := rng.NewSplitMix64(9)
	now := time.Now()
	s.mu.Lock()
	s.rate.observe(0, now.Add(-200*time.Millisecond)) // prime the clock
	s.mu.Unlock()
	s.Ingest(gen.Bits(2048)) // ~10 kbit/s measured; 2048 bits on hand
	// 2048 covered + 1024 queued at 10 kbit/s projects ~100ms: well
	// inside the 1s auth horizon. Under the cold-start bias the
	// estimate was a fraction of that and this was shed.
	if _, err := st.AllocateWait(32, time.Second, nil); err != nil { // 32 x 64-bit blocks = 2048 bits
		t.Fatalf("covered request: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := st.AllocateWait(16, 5*time.Second, nil) // 1024 bits
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("early burst shed despite measured capacity: %v", err)
		}
	case <-time.After(10 * time.Millisecond):
		// Queued, not shed: also a pass — feed it and confirm.
		s.Ingest(gen.Bits(2048))
		if err := <-done; err != nil {
			t.Fatalf("queued early burst failed: %v", err)
		}
	}
	if st2 := s.Stats(); st2.Shed[ClassAuth] != 0 {
		t.Fatalf("Shed[auth] = %d, want 0", st2.Shed[ClassAuth])
	}
}

func TestStatsSnapshotsPressure(t *testing.T) {
	s := New(Config{ShedDelay: 10 * time.Millisecond})
	defer s.Close()
	if st := s.Stats(); st.Pressure != 0 {
		t.Fatalf("idle Stats.Pressure = %v, want 0", st.Pressure)
	}
	otp, _ := s.NewStream("otp", 64, ClassOTP)
	done := make(chan error, 1)
	go func() {
		_, err := otp.AllocateWait(4, 5*time.Second, nil)
		done <- err
	}()
	for {
		s.mu.Lock()
		queued := s.queuedBits[ClassOTP]
		s.mu.Unlock()
		if queued > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Pressure < 1 {
		t.Fatalf("Stats.Pressure with unmeasured backlog = %v, want >= 1", st.Pressure)
	}
	s.Ingest(rng.NewSplitMix64(11).Bits(512))
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDemandRegistry(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.RegisterDemand("otp/a", ClassOTP, 4096)
	s.RegisterDemand("otp/b", ClassOTP, 1024)
	s.RegisterDemand("auth/pad", ClassAuth, 512)
	if got := s.RegisteredDemand(ClassOTP); got != 5120 {
		t.Fatalf("RegisteredDemand(otp) = %d, want 5120", got)
	}
	if got := s.RegisteredDemand(-1); got != 5632 {
		t.Fatalf("RegisteredDemand(all) = %d, want 5632", got)
	}
	// Re-registering replaces, not accumulates.
	s.RegisterDemand("otp/a", ClassOTP, 2048)
	if got := s.RegisteredDemand(ClassOTP); got != 3072 {
		t.Fatalf("after update: RegisteredDemand(otp) = %d, want 3072", got)
	}
	// A class change moves the entry between aggregates.
	s.RegisterDemand("otp/b", ClassRekey, 1024)
	if got := s.RegisteredDemand(ClassOTP); got != 2048 {
		t.Fatalf("after reclass: RegisteredDemand(otp) = %d, want 2048", got)
	}
	if got := s.RegisteredDemand(ClassRekey); got != 1024 {
		t.Fatalf("after reclass: RegisteredDemand(rekey) = %d, want 1024", got)
	}
	st := s.Stats()
	if st.DemandBits[ClassOTP] != 2048 || st.DemandBits[ClassRekey] != 1024 || st.DemandBits[ClassAuth] != 512 {
		t.Fatalf("Stats.DemandBits = %v", st.DemandBits)
	}
	s.UnregisterDemand("auth/pad")
	if got := s.RegisteredDemand(ClassAuth); got != 0 {
		t.Fatalf("after unregister: RegisteredDemand(auth) = %d, want 0", got)
	}
}
