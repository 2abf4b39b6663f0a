package keypool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/rng"
)

func TestDepositConsumeFIFO(t *testing.T) {
	r := New()
	bits := rng.NewSplitMix64(1).Bits(256)
	r.Deposit(bits)
	if r.Available() != 256 {
		t.Fatalf("Available = %d", r.Available())
	}
	a, err := r.TryConsume(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.TryConsume(156)
	if err != nil {
		t.Fatal(err)
	}
	joined := a.Clone()
	joined.AppendAll(b)
	if !joined.Equal(bits) {
		t.Error("consumed bits not FIFO-ordered")
	}
	if r.Available() != 0 {
		t.Errorf("Available = %d after draining", r.Available())
	}
}

func TestTryConsumeAllOrNothing(t *testing.T) {
	r := New()
	r.Deposit(bitarray.New(50))
	if _, err := r.TryConsume(51); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// The 50 bits must still be there.
	if r.Available() != 50 {
		t.Errorf("partial consumption occurred: %d left", r.Available())
	}
}

func TestClose(t *testing.T) {
	r := New()
	r.Deposit(bitarray.New(100))
	r.Close()
	if r.Available() != 0 {
		t.Errorf("Close kept %d bits", r.Available())
	}
	if _, err := r.TryConsume(1); !errors.Is(err, ErrClosed) {
		t.Errorf("TryConsume after close: %v", err)
	}
	// Deposits after close are dropped.
	r.Deposit(bitarray.New(10))
	if r.Available() != 0 {
		t.Error("deposit accepted after close")
	}
}

func TestStats(t *testing.T) {
	r := New()
	r.Deposit(bitarray.New(300))
	r.TryConsume(100)
	dep, con := r.Stats()
	if dep != 300 || con != 100 {
		t.Errorf("Stats = %d, %d", dep, con)
	}
}

func TestManySmallConsumers(t *testing.T) {
	// Concurrent consumers each get disjoint material totaling the
	// deposit exactly.
	r := New()
	const workers = 8
	const per = 64
	src := rng.NewSplitMix64(3).Bits(workers * per)
	r.Deposit(src)
	var wg sync.WaitGroup
	results := make([]*bitarray.BitArray, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bits, err := r.TryConsume(per)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = bits
		}(i)
	}
	wg.Wait()
	// Every worker got per bits; total matches.
	total := 0
	for i, b := range results {
		if b == nil {
			t.Fatalf("worker %d got nothing", i)
		}
		total += b.Len()
	}
	if total != workers*per {
		t.Errorf("total consumed %d", total)
	}
	if r.Available() != 0 {
		t.Errorf("leftover %d", r.Available())
	}
}

func TestCompaction(t *testing.T) {
	// Heavy churn must not grow memory: exercise the compaction path
	// and verify FIFO integrity across it.
	r := New()
	gen := rng.NewSplitMix64(4)
	var expect *bitarray.BitArray = bitarray.New(0)
	got := bitarray.New(0)
	for i := 0; i < 50; i++ {
		chunk := gen.Bits(1000)
		expect.AppendAll(chunk)
		r.Deposit(chunk)
		out, err := r.TryConsume(900)
		if err != nil {
			t.Fatal(err)
		}
		got.AppendAll(out)
	}
	rest, err := r.TryConsume(r.Available())
	if err != nil {
		t.Fatal(err)
	}
	got.AppendAll(rest)
	if !got.Equal(expect) {
		t.Error("compaction corrupted FIFO order")
	}
}

func TestZeroConsume(t *testing.T) {
	r := New()
	bits, err := r.TryConsume(0)
	if err != nil || bits.Len() != 0 {
		// Report the length, not the bits: key material must not reach
		// test logs (keytaint).
		t.Errorf("TryConsume(0): len=%d, err=%v", bits.Len(), err)
	}
}

func BenchmarkDepositConsume(b *testing.B) {
	r := New()
	chunk := rng.NewSplitMix64(1).Bits(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Deposit(chunk)
		if _, err := r.TryConsume(4096); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentConservationStress(t *testing.T) {
	// Many mixed-size consumers retrying TryConsume against many
	// depositors, under -race: every deposited bit is consumed exactly
	// once (exact conservation) and nobody starves.
	r := New()
	sizes := []int{16, 64, 256, 1024}
	const perSize = 8
	const rounds = 6
	var want uint64
	for _, sz := range sizes {
		want += uint64(sz) * perSize * rounds
	}
	var got uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sz := range sizes {
		for w := 0; w < perSize; w++ {
			wg.Add(1)
			go func(sz int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					bits, err := tryConsumeUntil(r, sz, 30*time.Second)
					if err != nil {
						t.Errorf("consume %d: %v", sz, err)
						return
					}
					mu.Lock()
					got += uint64(bits.Len())
					mu.Unlock()
				}
			}(sz)
		}
	}
	// Depositors trickle the exact total in odd-sized chunks.
	var dwg sync.WaitGroup
	const depositors = 4
	per := want / depositors
	for d := 0; d < depositors; d++ {
		dwg.Add(1)
		go func(d int) {
			defer dwg.Done()
			gen := rng.NewSplitMix64(uint64(d) + 1)
			left := int(per)
			for left > 0 {
				chunk := 100 + int(gen.Uint64()%400)
				if chunk > left {
					chunk = left
				}
				r.Deposit(gen.Bits(chunk))
				left -= chunk
			}
		}(d)
	}
	dwg.Wait()
	wg.Wait()
	if got != want {
		t.Fatalf("conservation violated: consumed %d of %d deposited bits", got, want)
	}
	dep, con := r.Stats()
	if dep != want || con != want {
		t.Fatalf("Stats = %d deposited / %d consumed, want %d / %d", dep, con, want, want)
	}
	if r.Available() != 0 {
		t.Fatalf("leftover %d bits", r.Available())
	}
}

// ---------------------------------------------------------------------
// Reservations
// ---------------------------------------------------------------------

func TestReserveConsumeRelease(t *testing.T) {
	r := New()
	src := rng.NewSplitMix64(9).Bits(1024)
	r.Deposit(src)
	rv, err := r.Reserve(512)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Available(); got != 512 {
		t.Errorf("Available = %d after reserving 512 of 1024", got)
	}
	if got := r.Reserved(); got != 512 {
		t.Errorf("Reserved = %d, want 512", got)
	}
	// Draw half, refund the rest.
	bits, err := rv.Consume(256)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(src.Slice(0, 256)) {
		t.Error("reservation served out of FIFO order")
	}
	if rem := rv.Remaining(); rem != 256 {
		t.Errorf("Remaining = %d, want 256", rem)
	}
	rv.Release()
	if got := r.Available(); got != 768 {
		t.Errorf("Available = %d after refund, want 768", got)
	}
	if got := r.Refunded(); got != 256 {
		t.Errorf("Refunded = %d, want 256", got)
	}
	// The refund lands at the *front*: the next consumer sees exactly
	// the bits the reservation would have.
	next, err := r.TryConsume(256)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(src.Slice(256, 512)) {
		t.Error("refund did not return to the front of the reservoir")
	}
	if _, c := r.Stats(); c != 512 {
		t.Errorf("consumed = %d, want only the 256 drawn + 256 TryConsumed", c)
	}
}

func TestReserveFailsWithoutDraining(t *testing.T) {
	r := New()
	r.Deposit(rng.NewSplitMix64(3).Bits(100))
	//lint:ignore reservepair Reserve must fail here (101 > 100 deposited); a non-nil reservation would already be a bug the Fatalf reports
	if _, err := r.Reserve(101); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if got := r.Available(); got != 100 {
		t.Errorf("failed Reserve drained the pool to %d", got)
	}
}

func TestReservationCloseRefundsAndIsIdempotent(t *testing.T) {
	r := New()
	r.Deposit(rng.NewSplitMix64(42).Bits(512))
	rv, err := r.Reserve(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Consume(128); err != nil {
		t.Fatal(err)
	}
	if err := rv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := r.Available(); got != 384 {
		t.Errorf("Available after Close = %d, want the 384 undrawn bits refunded", got)
	}
	if got := r.Refunded(); got != 384 {
		t.Errorf("Refunded = %d, want 384", got)
	}
	// Close after Close (the defer idiom racing an explicit Release) is
	// a no-op: no double refund.
	if err := rv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := r.Refunded(); got != 384 {
		t.Errorf("Refunded after double Close = %d, want still 384", got)
	}
}

func TestCloseVoidsReservations(t *testing.T) {
	r := New()
	r.Deposit(rng.NewSplitMix64(7).Bits(512))
	rv, err := r.Reserve(256)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := rv.Consume(128); !errors.Is(err, ErrClosed) {
		t.Fatalf("consume from voided reservation: %v, want ErrClosed", err)
	}
	if rem := rv.Remaining(); rem != 0 {
		t.Errorf("voided reservation still reports %d bits", rem)
	}
	rv.Release() // must not resurrect bits into the closed pool
	if got := r.Available(); got != 0 {
		t.Errorf("release into closed pool left %d bits", got)
	}
}

func TestReservationOverdraw(t *testing.T) {
	r := New()
	r.Deposit(rng.NewSplitMix64(8).Bits(128))
	rv, err := r.Reserve(128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Consume(129); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overdraw: %v, want ErrExhausted", err)
	}
	if _, err := rv.Consume(128); err != nil {
		t.Fatalf("full draw after failed overdraw: %v", err)
	}
	// Fully drawn: release is a no-op.
	rv.Release()
	if got := r.Available(); got != 0 {
		t.Errorf("Available = %d after full draw", got)
	}
}

func TestConcurrentReserveReleaseRefundStress(t *testing.T) {
	// Reservers racing consumers under -race: each reservation draws a
	// third of its bits and refunds the rest to the front via Release,
	// and the buffer is rebuilt on every front-refund while consumers
	// retry. At quiesce every deposited bit is either consumed exactly
	// once or still available — exact conservation — and the refund
	// ledger matches the undrawn remainders to the bit.
	r := New()
	const (
		reservers = 8
		resRounds = 40
		resBits   = 96
		drawBits  = 32 // per reservation; the other 64 are refunded

		consumers = 8
		conRounds = 20
		conBits   = 64

		slack = 512 // keeps the tail reserver from starving
	)
	const (
		wantDrawn    = reservers * resRounds * drawBits
		wantConsumed = consumers * conRounds * conBits
		wantRefunded = reservers * resRounds * (resBits - drawBits)
		total        = wantDrawn + wantConsumed + slack
	)

	var wg sync.WaitGroup
	for i := 0; i < reservers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < resRounds; {
				rv, err := r.Reserve(resBits)
				if errors.Is(err, ErrExhausted) {
					// Drained; depositors and releases will refill it.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if err != nil {
					t.Errorf("reserve: %v", err)
					return
				}
				if _, err := rv.Consume(drawBits); err != nil {
					t.Errorf("reservation draw: %v", err)
					return
				}
				rv.Release()
				round++
			}
		}()
	}
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < conRounds; round++ {
				if _, err := tryConsumeUntil(r, conBits, 30*time.Second); err != nil {
					t.Errorf("consume: %v", err)
					return
				}
			}
		}()
	}
	const depositors = 4
	for d := 0; d < depositors; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			gen := rng.NewSplitMix64(uint64(d) + 0xF00D)
			left := total / depositors
			for left > 0 {
				chunk := 64 + int(gen.Uint64()%256)
				if chunk > left {
					chunk = left
				}
				r.Deposit(gen.Bits(chunk))
				left -= chunk
			}
		}(d)
	}
	wg.Wait()

	dep, con := r.Stats()
	if dep != total {
		t.Errorf("deposited %d, want %d", dep, total)
	}
	if con != wantDrawn+wantConsumed {
		t.Errorf("consumed %d, want %d drawn + %d consumed", con, wantDrawn, wantConsumed)
	}
	if got := r.Refunded(); got != wantRefunded {
		t.Errorf("Refunded = %d, want %d", got, wantRefunded)
	}
	if got := r.Reserved(); got != 0 {
		t.Errorf("Reserved = %d after all releases", got)
	}
	if got := r.Available(); got != slack {
		t.Errorf("Available = %d at quiesce, want %d: conservation violated", got, slack)
	}
}

// tryConsumeUntil retries TryConsume until it succeeds or the deadline
// passes: a consumer polling a reservoir that depositors are filling.
func tryConsumeUntil(r *Reservoir, n int, timeout time.Duration) (*bitarray.BitArray, error) {
	deadline := time.Now().Add(timeout)
	for {
		bits, err := r.TryConsume(n)
		if !errors.Is(err, ErrExhausted) || time.Now().After(deadline) {
			return bits, err
		}
		time.Sleep(50 * time.Microsecond)
	}
}
