// Package keypool provides the distilled-key reservoir that couples the
// QKD protocol engine to its consumers. The engine deposits finished
// (sifted, corrected, amplified, authenticated) bits; IKE withdraws
// "Qblocks" to fold into session keys, one-time-pad Security
// Associations stream pad material out, and the authentication layer
// replenishes its Wegman-Carter pads.
//
// The reservoir is the battleground of Section 2's "sufficiently rapid
// key delivery": it is a race between the deposit rate (the QKD link's
// distilled throughput, ~1 kbit/s in 2003) and the consumption rate of
// the cryptographic workload. Consumers choose between failing fast
// (TryConsume) and blocking with a deadline (Consume), which is how the
// IKE timeout experiments exercise exhaustion.
//
// Blocked consumers hold FIFO tickets: they are served strictly in
// arrival order, and a deposit wakes only the waiters it can satisfy.
// A large withdrawal at the head of the queue therefore accumulates
// deposits until it is whole instead of losing every deposit to
// smaller, later arrivals (the thundering-herd starvation of a naive
// condition-variable Broadcast).
//
// Consumers that should not see a concrete *Reservoir — because their
// key really comes from the QoS-scheduled delivery service in
// internal/kms — accept the Source/Sink/Pool interfaces instead.
package keypool

import (
	"errors"
	"sync"
	"time"

	"qkd/internal/bitarray"
)

// Common errors.
var (
	// ErrExhausted is returned by TryConsume when the reservoir holds
	// fewer bits than requested.
	ErrExhausted = errors.New("keypool: insufficient key material")
	// ErrTimeout is returned by Consume when the deadline passes first.
	ErrTimeout = errors.New("keypool: timed out waiting for key material")
	// ErrClosed is returned once the reservoir is shut down.
	ErrClosed = errors.New("keypool: closed")
	// ErrCanceled is returned by ConsumeCancelable when the abort
	// channel fires before the bits become available.
	ErrCanceled = errors.New("keypool: withdrawal canceled")
)

// Source is the consumer-facing view of a key supply: everything IKE
// daemons, OTP Security Associations, and Wegman-Carter MACs need.
// *Reservoir implements it directly; the key delivery service
// (internal/kms) hands out QoS-classed implementations.
type Source interface {
	// Available returns the number of bits on hand right now.
	Available() int
	// TryConsume removes exactly n bits or fails without removing any.
	TryConsume(n int) (*bitarray.BitArray, error)
	// Consume removes exactly n bits, blocking until available or the
	// timeout elapses (timeout <= 0 blocks indefinitely).
	Consume(n int, timeout time.Duration) (*bitarray.BitArray, error)
	// ConsumeCancelable is Consume with an abort channel.
	ConsumeCancelable(n int, timeout time.Duration, cancel <-chan struct{}) (*bitarray.BitArray, error)
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

// waiter is one queued blocking withdrawal. It is served (bits and err
// assigned, done closed) under the reservoir mutex, strictly in FIFO
// order.
type waiter struct {
	n    int
	bits *bitarray.BitArray
	err  error
	done chan struct{}
}

// Reservoir is a thread-safe FIFO of secret bits.
type Reservoir struct {
	mu     sync.Mutex
	buf    *bitarray.BitArray // bits [head, Len) are live
	head   int
	closed bool

	// waiters is the FIFO ticket queue of blocked withdrawals.
	waiters []*waiter

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

// Deposit appends bits to the reservoir and serves queued withdrawals
// in arrival order; only waiters the new balance can satisfy wake.
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
	r.serveLocked()
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
// consumer that can't be fully served must not burn the pool. While
// blocked withdrawals are queued, TryConsume always fails — jumping the
// FIFO queue would reintroduce exactly the starvation the tickets
// eliminate.
func (r *Reservoir) TryConsume(n int) (*bitarray.BitArray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.waiters) > 0 {
		return nil, ErrExhausted
	}
	return r.takeLocked(n)
}

// Consume removes exactly n bits, blocking until they are available or
// the timeout elapses (timeout <= 0 blocks indefinitely).
func (r *Reservoir) Consume(n int, timeout time.Duration) (*bitarray.BitArray, error) {
	return r.ConsumeCancelable(n, timeout, nil)
}

// ConsumeCancelable is Consume with an abort channel: when cancel is
// closed before the bits become available, the withdrawal returns
// ErrCanceled without consuming anything. The IKE daemon uses this to
// tear down a responder's pending blocking withdrawal when the exchange
// that requested it dies — otherwise key deposited for the initiator's
// retry would feed the stale negotiation instead.
//
// Withdrawals are served in strict arrival order: the call enqueues a
// ticket and deposits fill tickets from the head of the queue. If a
// deposit has already filled the ticket when the deadline or cancel
// fires, the bits are returned (they were consumed on this caller's
// behalf; dropping them would desynchronize the mirrored peer pool).
func (r *Reservoir) ConsumeCancelable(n int, timeout time.Duration, cancel <-chan struct{}) (*bitarray.BitArray, error) {
	if cancel != nil {
		// A withdrawal whose exchange already died must never race a
		// fresh deposit to the bits.
		select {
		case <-cancel:
			return nil, ErrCanceled
		default:
		}
	}
	r.mu.Lock()
	if n < 0 {
		r.mu.Unlock()
		return nil, errors.New("keypool: negative request")
	}
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	// Fast path: empty queue and enough bits on hand.
	if len(r.waiters) == 0 {
		if bits, err := r.takeLocked(n); err == nil {
			r.mu.Unlock()
			return bits, nil
		}
	}
	w := &waiter{n: n, done: make(chan struct{})}
	r.waiters = append(r.waiters, w)
	r.mu.Unlock()

	var deadlineC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-w.done:
		return w.bits, w.err
	case <-deadlineC:
		return r.abandon(w, ErrTimeout)
	case <-cancel: // nil channel when cancel == nil: blocks forever
		return r.abandon(w, ErrCanceled)
	}
}

// abandon removes a waiter whose deadline or cancel fired. If a deposit
// served the ticket first, the bits won the race and are returned.
func (r *Reservoir) abandon(w *waiter, failErr error) (*bitarray.BitArray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-w.done:
		return w.bits, w.err
	default:
	}
	for i, q := range r.waiters {
		if q == w {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			break
		}
	}
	// Removing a large head may unblock smaller tickets behind it.
	r.serveLocked()
	return nil, failErr
}

// Close shuts the reservoir; all blocked and future consumers fail with
// ErrClosed. Remaining bits are discarded (they are secrets; callers
// that want them must drain first), and outstanding reservations are
// voided — set-aside pairwise key dies with the pool it came from, so a
// link teardown (cut, eavesdropping alarm) reaches key a transport
// reserved but has not yet put on the wire.
func (r *Reservoir) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.buf = bitarray.New(0)
	r.head = 0
	for _, w := range r.waiters {
		w.err = ErrClosed
		close(w.done)
	}
	r.waiters = nil
	for _, rv := range r.reservations {
		rv.void = true
	}
	r.reservations = nil
}

// serveLocked fills queued tickets in FIFO order while the balance
// allows. The head ticket blocks all later ones even when they are
// smaller: that is the anti-starvation guarantee. Caller holds mu; the
// reservoir is open.
func (r *Reservoir) serveLocked() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		bits, err := r.takeLocked(w.n)
		if err != nil {
			return // head not yet satisfiable; later deposits retry
		}
		w.bits = bits
		r.waiters = r.waiters[1:]
		close(w.done)
	}
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
// anything. Like TryConsume it refuses while blocked withdrawals are
// queued: a reservation must not jump the FIFO ticket queue.
func (r *Reservoir) Reserve(n int) (*Reservation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.waiters) > 0 {
		return nil, ErrExhausted
	}
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

// Release refunds the undrawn remainder to the front of the reservoir —
// the next consumer sees the same bits the reservation would have — and
// wakes any withdrawals the refund satisfies. Releasing a voided or
// empty reservation is a no-op; the reservation is dead afterwards.
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
	rv.r.serveLocked()
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
