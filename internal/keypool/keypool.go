// Package keypool provides the distilled-key reservoir that couples the
// QKD protocol engine to its consumers. The engine deposits finished
// (sifted, corrected, amplified, authenticated) bits; the
// authentication layer draws its Wegman-Carter pads, and relay and
// QKD-network transports reserve per-hop one-time pads.
//
// The reservoir is the battleground of Section 2's "sufficiently rapid
// key delivery": it is a race between the deposit rate (the QKD link's
// distilled throughput, ~1 kbit/s in 2003) and the consumption rate of
// the cryptographic workload. Withdrawals never block: TryConsume and
// Reserve either take all they ask for or fail with ErrExhausted.
// Consumers that wait for key (IKE quick mode, OTP tunnels) draw it
// from the QoS-scheduled delivery service in internal/kms instead.
//
// Consumers that should not see a concrete *Reservoir accept the
// Source/Sink/Pool interfaces, which kms.PoolView also satisfies.
package keypool

import (
	"errors"
	"sync"

	"qkd/internal/bitarray"
)

// Common errors.
var (
	// ErrExhausted is returned by TryConsume when the reservoir holds
	// fewer bits than requested.
	ErrExhausted = errors.New("keypool: insufficient key material")
	// ErrClosed is returned once the reservoir is shut down.
	ErrClosed = errors.New("keypool: closed")
)

// Source is the consumer-facing view of a key supply: what
// Wegman-Carter MACs need. *Reservoir implements it directly; the key
// delivery service (internal/kms) hands out QoS-classed
// implementations.
type Source interface {
	// Available returns the number of bits on hand right now.
	Available() int
	// TryConsume removes exactly n bits or fails without removing any.
	TryConsume(n int) (*bitarray.BitArray, error)
}

// Sink is the producer-facing view: the distillation engines deposit
// finished batches into one.
type Sink interface {
	Deposit(bits *bitarray.BitArray)
}

// Pool is the full two-sided view of a key supply.
type Pool interface {
	Source
	Sink
	// Stats returns lifetime deposit/consumption totals in bits.
	Stats() (deposited, consumed uint64)
}

// Reservoir is a thread-safe FIFO of secret bits.
type Reservoir struct {
	mu     sync.Mutex
	buf    *bitarray.BitArray // bits [head, Len) are live
	head   int
	closed bool

	// outstanding reservations, voided when the reservoir closes (the
	// set-aside bits may be compromised along with the pool).
	reservations []*Reservation

	deposited uint64
	consumed  uint64
	refunded  uint64
}

var (
	_ Pool = (*Reservoir)(nil)
)

// New returns an empty reservoir.
func New() *Reservoir {
	return &Reservoir{buf: bitarray.New(0)}
}

// Deposit appends bits to the reservoir.
func (r *Reservoir) Deposit(bits *bitarray.BitArray) {
	if bits.Len() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.compactLocked()
	r.buf.AppendAll(bits)
	r.deposited += uint64(bits.Len())
}

// Available returns the number of bits currently held.
func (r *Reservoir) Available() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Len() - r.head
}

// Stats returns lifetime deposit/consumption totals in bits.
func (r *Reservoir) Stats() (deposited, consumed uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deposited, r.consumed
}

// TryConsume removes exactly n bits, or returns ErrExhausted without
// removing anything. Key material is never partially consumed: a
// consumer that can't be fully served must not burn the pool.
func (r *Reservoir) TryConsume(n int) (*bitarray.BitArray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.takeLocked(n)
}

// Close shuts the reservoir; all future consumers fail with ErrClosed.
// Remaining bits are discarded (they are secrets; callers that want
// them must drain first), and outstanding reservations are voided —
// set-aside pairwise key dies with the pool it came from, so a link
// teardown (cut, eavesdropping alarm) reaches key a transport reserved
// but has not yet put on the wire.
func (r *Reservoir) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.buf = bitarray.New(0)
	r.head = 0
	for _, rv := range r.reservations {
		rv.void = true
	}
	r.reservations = nil
}

// takeLocked removes n bits if possible, counting them consumed.
// Caller holds mu.
func (r *Reservoir) takeLocked(n int) (*bitarray.BitArray, error) {
	out, err := r.takeRawLocked(n)
	if err == nil {
		r.consumed += uint64(n)
	}
	return out, err
}

// takeRawLocked removes n bits without stats accounting. Caller holds
// mu.
func (r *Reservoir) takeRawLocked(n int) (*bitarray.BitArray, error) {
	if r.closed {
		return nil, ErrClosed
	}
	if n < 0 {
		return nil, errors.New("keypool: negative request")
	}
	if r.buf.Len()-r.head < n {
		return nil, ErrExhausted
	}
	out := r.buf.Slice(r.head, r.head+n)
	r.head += n
	r.compactLocked()
	return out, nil
}

// ---------------------------------------------------------------------
// Reservations
// ---------------------------------------------------------------------

// Reservation is key set aside from a reservoir ahead of use: the bits
// leave Available() immediately (no concurrent consumer can double-book
// them) but count as consumed only as they are drawn with Consume. The
// unconsumed remainder can be refunded with Release — the
// all-or-nothing discipline multi-hop transports need: reserve every
// hop of the path first, and a hop that cannot be reserved costs the
// earlier hops nothing.
//
// Closing the reservoir voids its outstanding reservations: the
// set-aside bits are discarded with the pool (they may be known to the
// same adversary), and further Consume calls fail with ErrClosed.
type Reservation struct {
	r    *Reservoir
	bits *bitarray.BitArray
	off  int // bits [off, Len) remain undrawn
	void bool
}

// Reserve sets n bits aside, or fails with ErrExhausted without taking
// anything.
func (r *Reservoir) Reserve(n int) (*Reservation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bits, err := r.takeRawLocked(n)
	if err != nil {
		return nil, err
	}
	rv := &Reservation{r: r, bits: bits}
	r.reservations = append(r.reservations, rv)
	return rv, nil
}

// Reserved returns the bits currently set aside across all outstanding
// reservations.
func (r *Reservoir) Reserved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, rv := range r.reservations {
		total += rv.bits.Len() - rv.off
	}
	return total
}

// Refunded returns the lifetime bits returned to the reservoir by
// reservation releases.
func (r *Reservoir) Refunded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refunded
}

// Remaining returns the undrawn bits left in the reservation (0 once
// voided).
func (rv *Reservation) Remaining() int {
	rv.r.mu.Lock()
	defer rv.r.mu.Unlock()
	if rv.void {
		return 0
	}
	return rv.bits.Len() - rv.off
}

// Consume draws exactly n bits from the reservation. It fails with
// ErrClosed once the reservoir shut down underneath it (the set-aside
// key is gone) and ErrExhausted if fewer than n bits remain.
func (rv *Reservation) Consume(n int) (*bitarray.BitArray, error) {
	rv.r.mu.Lock()
	defer rv.r.mu.Unlock()
	if rv.void {
		return nil, ErrClosed
	}
	if n < 0 {
		return nil, errors.New("keypool: negative request")
	}
	if rv.bits.Len()-rv.off < n {
		return nil, ErrExhausted
	}
	out := rv.bits.Slice(rv.off, rv.off+n)
	rv.off += n
	rv.r.consumed += uint64(n)
	if rv.off == rv.bits.Len() {
		rv.r.dropReservationLocked(rv)
	}
	return out, nil
}

// Release refunds the undrawn remainder to the front of the reservoir:
// the next consumer sees the same bits the reservation would have.
// Releasing a voided or empty reservation is a no-op; the reservation
// is dead afterwards.
func (rv *Reservation) Release() {
	rv.r.mu.Lock()
	defer rv.r.mu.Unlock()
	if rv.void || rv.r.closed {
		rv.void = true
		return
	}
	rv.r.dropReservationLocked(rv)
	rem := rv.bits.Len() - rv.off
	rv.void = true
	if rem == 0 {
		return
	}
	refund := rv.bits.Slice(rv.off, rv.bits.Len())
	refund.AppendAll(rv.r.buf.Slice(rv.r.head, rv.r.buf.Len()))
	rv.r.buf = refund
	rv.r.head = 0
	rv.r.refunded += uint64(rem)
}

// Close releases the reservation. It exists so a reservation can be
// parked in a defer at acquisition time — `defer rv.Close()` — and
// satisfies the lifecycle invariant the reservepair analyzer enforces:
// every Reserve must reach Consume, Release, or Close on all paths.
// Closing an already-consumed or already-released reservation is a
// no-op, so the defer idiom composes with early Consume.
func (rv *Reservation) Close() error {
	rv.Release()
	return nil
}

// dropReservationLocked removes a finished reservation from the
// outstanding list. Caller holds mu.
func (r *Reservoir) dropReservationLocked(rv *Reservation) {
	for i, q := range r.reservations {
		if q == rv {
			r.reservations = append(r.reservations[:i], r.reservations[i+1:]...)
			return
		}
	}
}

// compactLocked drops consumed head bits once they dominate the buffer,
// keeping memory proportional to live bits.
func (r *Reservoir) compactLocked() {
	if r.head > 4096 && r.head*2 > r.buf.Len() {
		r.buf = r.buf.Slice(r.head, r.buf.Len())
		r.head = 0
	}
}
