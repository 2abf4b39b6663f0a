// Package kms implements the Key Delivery Service (KDS): the layer the
// paper's Section 2 demands but the 2003 system never had. Distilled
// key is scarce (a 1 kbit/s-class link) while consumers are many — OTP
// pad streams, IKE Qblock rekeys, Wegman-Carter pad replenishment, and
// whole relay meshes feeding end-to-end key — so "sufficiently rapid
// key delivery" is a scheduling problem, not just a pipe. A Service
// sits between the distillation engines (and any other key source) and
// every consumer, and provides:
//
//   - named key streams ([Stream]) with synchronized block IDs: the
//     two mirrored endpoints of a QKD link carve *identical* key
//     blocks by (stream, sequence) ticket instead of relying on
//     lockstep withdrawal order. Tickets address absolute offsets in a
//     deposit-ordered ledger, so any claim order on either side yields
//     bit-exact agreement;
//
//   - a QoS scheduler: allocation requests carry a class (OTP pad
//     streams > IKE Qblock rekey > auth-pad replenishment), are served
//     strictly by class priority and FIFO within a class (a large
//     blocked request accumulates deposits instead of losing every one
//     to smaller later arrivals), and pass adaptive admission control —
//     when the measured deposit rate falls below demand, low-class
//     requests are shed immediately (ErrOverload) rather than queued to
//     certain timeout, the demand/capacity adaptation Elastic-TCP
//     applies to high-BDP paths;
//
//   - multi-source aggregation ([Feed]): a Service accepts deposits
//     from a direct QKD link and from relay-mesh end-to-end transport
//     alike, with disruption-tolerant custody buffering across link
//     outages — bits deposited while a source is down are buffered in
//     arrival order and flushed intact on restore.
//
// The two mirrored Services of a link stay synchronized by the same
// contract the raw reservoirs used: both ends ingest identical bits in
// identical order. Everything above that — claim order, consumer
// concurrency, QoS queueing — is free to differ per side, which is the
// point.
package kms

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/keypool"
)

// Class orders key delivery: lower values preempt higher ones.
type Class int

const (
	// ClassOTP is one-time-pad material for running SAs: starving it
	// stops traffic dead, so it outranks everything.
	ClassOTP Class = iota
	// ClassRekey is IKE Qblock withdrawal for SA rollover.
	ClassRekey
	// ClassAuth is Wegman-Carter pad replenishment: it defends future
	// conversations, so it yields to both and is shed first under
	// overload.
	ClassAuth
	// NumClasses bounds the class space.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassOTP:
		return "otp"
	case ClassRekey:
		return "rekey"
	case ClassAuth:
		return "auth"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Errors. The closed and exhausted values wrap their keypool
// counterparts so consumers written against keypool.Source
// (errors.Is(err, keypool.ErrExhausted) etc.) behave identically when
// handed a PoolView.
var (
	ErrTimeout   = errors.New("kms: timed out waiting for key delivery")
	ErrClosed    = fmt.Errorf("kms: service closed: %w", keypool.ErrClosed)
	ErrCanceled  = errors.New("kms: request canceled")
	ErrExhausted = fmt.Errorf("kms: insufficient key on hand: %w", keypool.ErrExhausted)
	// ErrOverload is returned by admission control: the measured
	// deposit rate cannot clear the queued demand ahead of this request
	// within its class's horizon, so it is shed instead of queued.
	ErrOverload = errors.New("kms: admission control shed the request")
	// ErrReclaimed rejects a (stream, sequence) ticket whose ledger
	// range was already claimed or released on this side.
	ErrReclaimed = errors.New("kms: ticket already claimed")
	// ErrTicketRange rejects a ticket addressing ledger implausibly far
	// beyond what has been deposited — a corrupted or misrouted ticket.
	// Accepting it would poison the allocation cursor for good.
	ErrTicketRange = errors.New("kms: ticket range implausibly beyond the ledger")
	// ErrDuplicateStream rejects reusing a stream name.
	ErrDuplicateStream = errors.New("kms: stream already exists")
	// ErrDuplicateSource rejects reusing a source name.
	ErrDuplicateSource = errors.New("kms: source already attached")
)

// Config tunes a Service.
type Config struct {
	// ShedDelay is the admission-control horizon: a ClassAuth request
	// whose projected queue wait exceeds it is shed with ErrOverload
	// (ClassRekey gets 8x the horizon; ClassOTP is never shed).
	// Default 250 ms.
	ShedDelay time.Duration
	// RateHalfLife is the EWMA horizon of the deposit-rate estimator
	// driving admission control. Default 250 ms.
	RateHalfLife time.Duration
	// Now is the clock the deposit-rate estimator reads. Injecting it
	// makes admission control replayable: a harness driving deposits
	// from a seeded schedule can advance a fake clock in lockstep and
	// get bit-identical shed decisions. Defaults to time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ShedDelay <= 0 {
		c.ShedDelay = 250 * time.Millisecond
	}
	if c.RateHalfLife <= 0 {
		c.RateHalfLife = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// shedHorizon returns the projected-wait bound beyond which a request
// of class c is shed; 0 means never shed.
func (c Config) shedHorizon(cl Class) time.Duration {
	switch cl {
	case ClassRekey:
		return 8 * c.ShedDelay
	case ClassAuth:
		return c.ShedDelay
	}
	return 0
}

// Stats is a Service activity snapshot.
type Stats struct {
	DepositedBits uint64 // total ingested into the ledger
	ClaimedBits   uint64 // delivered through stream claims
	ReleasedBits  uint64 // tickets spent without retrieval
	BufferedBits  uint64 // held in DTN custody across source outages

	// Per-class scheduler counters.
	Granted     [NumClasses]uint64 // allocation requests granted
	GrantedBits [NumClasses]uint64
	Shed        [NumClasses]uint64 // rejected by admission control
	Expired     [NumClasses]uint64 // timed out or canceled while queued
	Degraded    [NumClasses]uint64 // queued in timeout-bounded degraded mode

	// Pressure is the congestion signal at snapshot time (see
	// Service.Pressure): projected rekey-class wait over the rekey shed
	// horizon. 0 idle, >= 1 means the next rekey request would be shed.
	Pressure float64

	// DemandBits is the windowed demand registered per class by flow
	// controllers (see RegisterDemand) at snapshot time.
	DemandBits [NumClasses]uint64
}

// Service is one endpoint's key delivery service.
type Service struct {
	cfg Config

	mu     sync.Mutex
	closed bool

	// The synchronized ledger: every deposited bit has an absolute
	// offset (identical on the mirrored peer), and stream tickets
	// address ranges of it.
	ledger     *bitarray.BitArray
	ledgerBase uint64        // absolute offset of ledger bit 0
	ledgerEnd  atomic.Uint64 // absolute end of deposited ledger bits
	granted    atomic.Uint64 // allocation cursor (absolute); written under mu

	streams map[string]*Stream
	sources map[string]*Feed

	// Claim bookkeeping: reserved/served ranges above the prune
	// frontier, and claims waiting for ledger coverage.
	ranges       []*claimRange
	frontier     uint64
	claimWaiters []*claimWaiter

	// QoS scheduler state: per-class FIFO allocation queues.
	queues     [NumClasses][]*allocWaiter
	queuedBits [NumClasses]uint64
	rate       rateEstimator

	// Registered windowed demand (flow controllers announce how much
	// they intend to draw over their next window). Own mutex: readers
	// (transport sizing, distillation bias) must not contend with the
	// allocation hot path.
	demandMu      sync.Mutex
	demands       map[string]demandEntry
	demandByClass [NumClasses]uint64

	stats Stats
}

// demandEntry is one flow controller's registered window.
type demandEntry struct {
	class Class
	bits  uint64
}

// New builds a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		ledger:  bitarray.New(0),
		streams: make(map[string]*Stream),
		sources: make(map[string]*Feed),
		demands: make(map[string]demandEntry),
		rate:    rateEstimator{halfLife: cfg.RateHalfLife.Seconds()},
	}
}

// Ingest deposits distilled bits from the default (direct-link) source,
// appending them to the ledger. The mirrored peer Service ingests the
// same bits in the same order, so both ledgers hold them at the same
// absolute offsets.
func (s *Service) Ingest(bits *bitarray.BitArray) {
	n := bits.Len()
	if n == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.stats.DepositedBits += uint64(n)
	s.ledger.AppendAll(bits)
	s.ledgerEnd.Add(uint64(n))
	s.rate.observe(n, s.cfg.Now())
	s.serveClaimsLocked()
	s.dispatchLocked()
}

// Available returns the unallocated ledger bits on hand, without
// taking the service lock.
func (s *Service) Available() int {
	if n := int64(s.ledgerEnd.Load()) - int64(s.granted.Load()); n > 0 {
		return int(n)
	}
	return 0
}

// Stats returns a snapshot. Feed custody is summed outside the service
// lock: feeds hold their own mutex across Ingest (which takes s.mu), so
// the two locks must never be taken in the s.mu -> f.mu order.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Pressure = s.pressureLocked()
	feeds := make([]*Feed, 0, len(s.sources))
	for _, f := range s.sources {
		feeds = append(feeds, f)
	}
	s.mu.Unlock()
	s.demandMu.Lock()
	st.DemandBits = s.demandByClass
	s.demandMu.Unlock()
	for _, f := range feeds {
		st.BufferedBits += uint64(f.Buffered())
	}
	return st
}

// Close shuts the service down: queued allocations and pending claims
// fail with ErrClosed, as do all future requests. Remaining key is
// discarded.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.queues {
		for _, w := range s.queues[c] {
			w.err = ErrClosed
			close(w.done)
		}
		s.queues[c] = nil
		s.queuedBits[c] = 0
	}
	for _, w := range s.claimWaiters {
		w.err = ErrClosed
		close(w.done)
	}
	s.claimWaiters = nil
	s.ledger = bitarray.New(0)
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// QoS scheduler: class-priority, FIFO-ticket allocation over the ledger
// ---------------------------------------------------------------------

// allocWaiter is one queued allocation request.
type allocWaiter struct {
	st    *Stream
	bits  int
	class Class
	tk    Ticket
	err   error
	done  chan struct{}
}

// allocBits grants `bits` of ledger to the stream, queueing behind
// same-or-higher-class requests and subject to admission control.
func (s *Service) allocBits(st *Stream, bits int, timeout time.Duration, cancel <-chan struct{}) (Ticket, error) {
	if bits <= 0 {
		return Ticket{}, errors.New("kms: non-positive allocation")
	}
	if cancel != nil {
		select {
		case <-cancel:
			return Ticket{}, ErrCanceled
		default:
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	if s.queueEmptyForLocked(st.class) && s.coveredLocked(bits) {
		tk := s.grantLocked(st, bits)
		s.mu.Unlock()
		return tk, nil
	}
	if err := s.admitLocked(st.class, bits); err != nil {
		s.stats.Shed[st.class]++
		s.mu.Unlock()
		return Ticket{}, err
	}
	// Degraded mode, the early-pressure signal ahead of hard sheds:
	// past half the shed horizon the request is still admitted, but its
	// wait is bounded by a small multiple of the horizon instead of the
	// caller's full deadline — sustained pressure turns into fast,
	// bounded failures the caller can back off on, not slow ones that
	// pin a starved request for its entire timeout.
	if horizon := s.cfg.shedHorizon(st.class); horizon > 0 {
		if wait, known := s.projectedWaitLocked(st.class, bits); known && wait > horizon/2 {
			s.stats.Degraded[st.class]++
			if bound := 2 * horizon; timeout <= 0 || timeout > bound {
				timeout = bound
			}
		}
	}
	w := &allocWaiter{st: st, bits: bits, class: st.class, done: make(chan struct{})}
	s.queues[st.class] = append(s.queues[st.class], w)
	s.queuedBits[st.class] += uint64(bits)
	s.mu.Unlock()

	var deadlineC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-w.done:
		return w.tk, w.err
	case <-deadlineC:
		return s.abandonAlloc(w, ErrTimeout)
	case <-cancel:
		return s.abandonAlloc(w, ErrCanceled)
	}
}

// tryAllocBits grants immediately or fails without queueing.
func (s *Service) tryAllocBits(st *Stream, bits int) (Ticket, error) {
	if bits <= 0 {
		return Ticket{}, errors.New("kms: non-positive allocation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Ticket{}, ErrClosed
	}
	if !s.queueEmptyForLocked(st.class) || !s.coveredLocked(bits) {
		return Ticket{}, ErrExhausted
	}
	return s.grantLocked(st, bits), nil
}

// abandonAlloc removes a queued request whose deadline or cancel fired;
// a grant that raced it wins (the ticket is already spent ledger).
func (s *Service) abandonAlloc(w *allocWaiter, failErr error) (Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.done:
		return w.tk, w.err
	default:
	}
	q := s.queues[w.class]
	for i, qw := range q {
		if qw == w {
			s.queues[w.class] = append(q[:i], q[i+1:]...)
			s.queuedBits[w.class] -= uint64(w.bits)
			break
		}
	}
	s.stats.Expired[w.class]++
	// Removing a large head may unblock requests behind it.
	s.dispatchLocked()
	return Ticket{}, failErr
}

// coveredLocked reports whether the deposited ledger covers `bits` more
// of allocation.
func (s *Service) coveredLocked(bits int) bool {
	return s.granted.Load()+uint64(bits) <= s.ledgerEnd.Load()
}

// queueEmptyForLocked reports whether no request of class c or higher
// priority is queued (in which case a new class-c request may be
// granted immediately without jumping anyone it must yield to).
func (s *Service) queueEmptyForLocked(c Class) bool {
	for cc := Class(0); cc <= c; cc++ {
		if len(s.queues[cc]) > 0 {
			return false
		}
	}
	return true
}

// grantLocked carves the next ledger range into a ticket.
func (s *Service) grantLocked(st *Stream, bits int) Ticket {
	off := s.granted.Load()
	s.granted.Store(off + uint64(bits))
	blocks := (bits + st.blockBits - 1) / st.blockBits
	seq := st.nextSeq
	st.nextSeq += uint64(blocks)
	s.stats.Granted[st.class]++
	s.stats.GrantedBits[st.class] += uint64(bits)
	return Ticket{Stream: st.name, Seq: seq, Offset: off, Bits: bits}
}

// dispatchLocked serves queued allocation requests: strictly by class
// priority, FIFO within a class, and only as far as deposited ledger
// covers. The head of the highest non-empty class blocks everything
// behind and below it — that is the starvation guarantee: the next
// deposited bits belong to it, no matter how small a later request is.
func (s *Service) dispatchLocked() {
	for c := Class(0); c < NumClasses; c++ {
		q := s.queues[c]
		for len(q) > 0 {
			w := q[0]
			if !s.coveredLocked(w.bits) {
				s.queues[c] = q
				return
			}
			w.tk = s.grantLocked(w.st, w.bits)
			s.queuedBits[c] -= uint64(w.bits)
			q = q[1:]
			close(w.done)
		}
		s.queues[c] = q
	}
}

// admitLocked is the Elastic-style adaptive admission check: project
// how long the queue ahead of a class-c request of `bits` would take to
// clear at the measured deposit rate, and shed the request when that
// exceeds the class's horizon. High-priority classes are never shed.
func (s *Service) admitLocked(c Class, bits int) error {
	horizon := s.cfg.shedHorizon(c)
	if horizon <= 0 {
		return nil
	}
	wait, known := s.projectedWaitLocked(c, bits)
	if !known {
		// No deposit observed yet: admit optimistically; the deadline
		// still bounds the wait.
		return nil
	}
	if wait > horizon {
		return ErrOverload
	}
	return nil
}

// projectedWaitLocked estimates how long a class-c request of `bits`
// would queue: the backlog it must wait behind (same-or-higher class
// queues plus itself, minus uncovered ledger already deposited) divided
// by the measured deposit rate. known is false when no rate has been
// observed yet.
func (s *Service) projectedWaitLocked(c Class, bits int) (wait time.Duration, known bool) {
	backlog := int64(bits)
	for cc := Class(0); cc <= c; cc++ {
		backlog += int64(s.queuedBits[cc])
	}
	backlog -= int64(s.ledgerEnd.Load()) - int64(s.granted.Load())
	if backlog <= 0 {
		return 0, true
	}
	rate := s.rate.perSecond()
	if rate <= 0 {
		return 0, false
	}
	return time.Duration(float64(backlog) / rate * float64(time.Second)), true
}

// Pressure is the service's early-warning congestion signal: the
// projected wait a new rekey-class request would face, normalized by
// the rekey shed horizon. 0 means an idle scheduler; values at or
// above 1 mean the next such request would be shed — consumers (the
// vpn rekeyer) stretch their backoff as this approaches 1 instead of
// discovering the overload through hard ErrOverload failures.
func (s *Service) Pressure() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pressureLocked()
}

func (s *Service) pressureLocked() float64 {
	horizon := s.cfg.shedHorizon(ClassRekey)
	if horizon <= 0 || s.closed {
		return 0
	}
	wait, known := s.projectedWaitLocked(ClassRekey, 0)
	if !known {
		// Backlog with no measured capacity: maximal pressure.
		for c := Class(0); c < NumClasses; c++ {
			if s.queuedBits[c] > 0 {
				return 1
			}
		}
		return 0
	}
	return float64(wait) / float64(horizon)
}

// ProjectedWait estimates how long a class-c request of `bits` would
// queue right now: backlog ahead of it over the measured deposit rate.
// known is false while no deposit interval has been measured. Flow
// controllers sample this as their queueing-delay signal — the analog
// of LEDBAT's one-way-delay probe — without committing a request.
func (s *Service) ProjectedWait(c Class, bits int) (wait time.Duration, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, true
	}
	return s.projectedWaitLocked(c, bits)
}

// ---------------------------------------------------------------------
// Windowed demand registry
// ---------------------------------------------------------------------

// RegisterDemand records (or updates) a named flow controller's
// windowed demand: the bits it intends to draw in class c over its
// current window. Demand is advisory — it never reserves ledger — but
// downstream producers read the aggregate to size work toward real
// need: qnet transports stripe RegisteredDemand bits instead of a fixed
// request, and distillation biases batch splits toward starved classes.
// bits <= 0 clears the entry.
func (s *Service) RegisterDemand(name string, c Class, bits int) {
	if c < 0 || c >= NumClasses {
		return
	}
	s.demandMu.Lock()
	defer s.demandMu.Unlock()
	if old, ok := s.demands[name]; ok {
		s.demandByClass[old.class] -= old.bits
	}
	if bits <= 0 {
		delete(s.demands, name)
		return
	}
	s.demands[name] = demandEntry{class: c, bits: uint64(bits)}
	s.demandByClass[c] += uint64(bits)
}

// UnregisterDemand drops a named demand registration.
func (s *Service) UnregisterDemand(name string) {
	s.RegisterDemand(name, 0, 0)
}

// RegisteredDemand sums the windowed demand registered for class c, or
// across all classes when c < 0.
func (s *Service) RegisteredDemand(c Class) int {
	s.demandMu.Lock()
	defer s.demandMu.Unlock()
	if c >= 0 && c < NumClasses {
		return int(s.demandByClass[c])
	}
	var total uint64
	for _, b := range s.demandByClass {
		total += b
	}
	return int(total)
}

// Cursor returns the absolute allocation cursor — the ledger offset
// the next granted ticket starts at. Mirrored endpoints that have seen
// the same ticket history report identical cursors; the gateway
// restart tests assert exactly that to rule out ledger divergence.
func (s *Service) Cursor() uint64 { return s.granted.Load() }

// rateEstimator tracks the deposit rate as an exponentially weighted
// moving average, adapting over roughly halfLife seconds — the capacity
// half of the demand/capacity ratio admission control steers by.
type rateEstimator struct {
	halfLife float64
	rate     float64 // bits per second
	last     time.Time
	primed   bool
	seeded   bool
}

func (r *rateEstimator) observe(bits int, now time.Time) {
	if !r.primed {
		r.primed = true
		r.last = now
		return
	}
	dt := now.Sub(r.last).Seconds()
	if dt < 1e-6 {
		dt = 1e-6
	}
	inst := float64(bits) / dt
	// The first measured interval seeds the estimate outright. Easing
	// toward it from zero by alpha would leave the capacity estimate a
	// small fraction of reality for several half-lives, and admission
	// control would shed early traffic against a phantom shortage.
	if !r.seeded {
		r.seeded = true
		r.rate = inst
		r.last = now
		return
	}
	alpha := 1 - math.Exp(-dt/r.halfLife)
	r.rate += alpha * (inst - r.rate)
	r.last = now
}

func (r *rateEstimator) perSecond() float64 { return r.rate }
