package kms

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"qkd/internal/bitarray"
)

// Ticket names one allocated key block range: (stream, sequence)
// identity plus the absolute ledger range backing it. Because both
// mirrored Services ingest identical deposits, a ticket resolves to
// bit-identical key on both endpoints regardless of local claim order —
// the property lockstep withdrawal order used to provide implicitly,
// made explicit and order-independent. Tickets travel in-band (the IKE
// quick-mode proposal carries one); they name key but contain none.
type Ticket struct {
	// Stream is the owning stream's name.
	Stream string
	// Seq is the first block ID covered by this ticket; a ticket for n
	// blocks covers [Seq, Seq+n).
	Seq uint64
	// Offset is the absolute ledger bit offset of the block range.
	Offset uint64
	// Bits is the range length.
	Bits int
}

// Stream is a named sequence of fixed-size key blocks carved from the
// synchronized ledger. One side of the link allocates (assigning block
// IDs and ledger ranges under the QoS scheduler); both sides claim.
// Every allocated ticket must eventually be Claimed or Released on each
// side — at most once — which is what lets the ledger prune behind the
// claim frontier. A ticket lost in transit (the allocator's
// authenticated send fails after allocation, so the follower never
// learns the range exists) leaves a pruning hole on the follower until
// the service restarts: its memory cost is bounded by the rarity of
// authenticated-channel failures, and claims stay correct because
// offsets are absolute.
type Stream struct {
	svc       *Service
	name      string
	blockBits int
	class     Class
	nextSeq   uint64 // guarded by svc.mu
}

// NewStream registers a stream. Mirrored Services must register
// mirrored streams with identical block sizes; the class sets the
// stream's QoS scheduling priority on the allocating side.
func (s *Service) NewStream(name string, blockBits int, class Class) (*Stream, error) {
	if blockBits <= 0 {
		return nil, errors.New("kms: non-positive block size")
	}
	if class < 0 || class >= NumClasses {
		return nil, fmt.Errorf("kms: invalid class %d", class)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, ok := s.streams[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateStream, name)
	}
	st := &Stream{svc: s, name: name, blockBits: blockBits, class: class}
	s.streams[name] = st
	return st, nil
}

// Name returns the stream name.
func (st *Stream) Name() string { return st.name }

// BlockBits returns the fixed block size.
func (st *Stream) BlockBits() int { return st.blockBits }

// AllocateWait requests `blocks` consecutive blocks, blocking in the
// QoS scheduler until deposited key covers them, the timeout elapses
// (timeout <= 0 waits indefinitely), or cancel fires. Under overload,
// sheddable classes fail fast with ErrOverload.
func (st *Stream) AllocateWait(blocks int, timeout time.Duration, cancel <-chan struct{}) (Ticket, error) {
	return st.svc.allocBits(st, blocks*st.blockBits, timeout, cancel)
}

// TryAllocate requests `blocks` consecutive blocks without queueing:
// it fails with ErrExhausted unless the grant is immediately coverable
// and no same-or-higher-class request is waiting.
func (st *Stream) TryAllocate(blocks int) (Ticket, error) {
	return st.svc.tryAllocBits(st, blocks*st.blockBits)
}

// Claim retrieves a ticket's key bits, blocking until the local ledger
// covers the range (the mirrored peer may deposit later than the
// allocator did). Each ticket range is claimable at most once per side;
// a duplicate fails with ErrReclaimed. If the deadline or cancel fires
// first, the ticket is marked spent — the allocator burned that ledger
// range for good, on both sides — and the bits are discarded.
func (st *Stream) Claim(tk Ticket, timeout time.Duration, cancel <-chan struct{}) (*bitarray.BitArray, error) {
	s := st.svc
	if tk.Stream != st.name {
		return nil, fmt.Errorf("kms: ticket for stream %q claimed on %q", tk.Stream, st.name)
	}
	if tk.Bits <= 0 {
		return nil, errors.New("kms: empty ticket")
	}
	if cancel != nil {
		select {
		case <-cancel:
			return nil, ErrCanceled
		default:
		}
	}
	end := tk.Offset + uint64(tk.Bits)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	r, err := s.insertRangeLocked(tk.Offset, end)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.followLocked(st, tk)
	if end <= s.ledgerEnd.Load() {
		bits := s.copyRangeLocked(tk.Offset, end)
		s.retireRangeLocked(r)
		s.stats.ClaimedBits += uint64(tk.Bits)
		s.mu.Unlock()
		return bits, nil
	}
	w := &claimWaiter{r: r, off: tk.Offset, end: end, done: make(chan struct{})}
	s.claimWaiters = append(s.claimWaiters, w)
	s.mu.Unlock()

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
		return s.abandonClaim(w, ErrTimeout)
	case <-cancel:
		return s.abandonClaim(w, ErrCanceled)
	}
}

// Release marks a ticket spent without retrieving its bits: the path a
// failed negotiation takes so both sides burn the same ledger range and
// the claim frontier keeps advancing. Releasing an already-claimed (or
// already-released) ticket is a no-op.
func (st *Stream) Release(tk Ticket) {
	if tk.Bits <= 0 {
		return
	}
	s := st.svc
	end := tk.Offset + uint64(tk.Bits)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	r, err := s.insertRangeLocked(tk.Offset, end)
	if err != nil {
		return // already claimed/released
	}
	s.followLocked(st, tk)
	s.retireRangeLocked(r)
	s.stats.ReleasedBits += uint64(tk.Bits)
}

// Next allocates and claims in one step — the allocator side's common
// path (a granted ticket is covered by definition, so the claim returns
// immediately). On a claim failure the ticket is released locally (the
// grant is spent regardless) and returned so the caller can still tell
// the peer which range died.
func (st *Stream) Next(blocks int, timeout time.Duration, cancel <-chan struct{}) (Ticket, *bitarray.BitArray, error) {
	tk, err := st.AllocateWait(blocks, timeout, cancel)
	if err != nil {
		return Ticket{}, nil, err
	}
	bits, err := st.Claim(tk, timeout, cancel)
	if err != nil {
		st.Release(tk)
		return tk, nil, err
	}
	return tk, bits, nil
}

// ---------------------------------------------------------------------
// Ledger range bookkeeping
// ---------------------------------------------------------------------

// claimRange tracks one ticket's ledger range from first sight
// (reserved) to retirement (claimed, released, or expired), at which
// point the prune frontier may advance over it.
type claimRange struct {
	off, end uint64
	retired  bool
}

// claimWaiter is a claim blocked on ledger coverage.
type claimWaiter struct {
	r        *claimRange
	off, end uint64
	bits     *bitarray.BitArray
	err      error
	done     chan struct{}
}

// maxClaimAhead bounds how far beyond the locally deposited ledger a
// ticket may reach. Legitimate claims can run ahead of a lagging
// mirror, but only by in-flight deposits; 2^30 bits (128 MiB of key,
// years of a kbit/s-class link) is far past any honest skew. Without
// the bound, one corrupted offset would push the allocation cursor
// somewhere coveredLocked can never reach again, silently wedging
// every future allocation on this endpoint.
const maxClaimAhead = 1 << 30

// insertRangeLocked reserves [off, end), rejecting overlap with any
// seen range (double claim), already-pruned ledger, and implausible
// offsets.
func (s *Service) insertRangeLocked(off, end uint64) (*claimRange, error) {
	if off < s.frontier {
		return nil, fmt.Errorf("%w: range [%d,%d) is behind the claim frontier %d", ErrReclaimed, off, end, s.frontier)
	}
	if end < off || end > s.ledgerEnd.Load()+maxClaimAhead {
		return nil, fmt.Errorf("%w: range [%d,%d) with %d bits deposited", ErrTicketRange, off, end, s.ledgerEnd.Load())
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].end > off })
	if i < len(s.ranges) && s.ranges[i].off < end {
		return nil, fmt.Errorf("%w: range [%d,%d) overlaps [%d,%d)", ErrReclaimed, off, end, s.ranges[i].off, s.ranges[i].end)
	}
	r := &claimRange{off: off, end: end}
	s.ranges = append(s.ranges, nil)
	copy(s.ranges[i+1:], s.ranges[i:])
	s.ranges[i] = r
	return r, nil
}

// followLocked lets the non-allocating side track the allocator: the
// cursor and the stream's next block ID advance past every ticket seen,
// so a late local allocation can never collide with followed ranges.
func (s *Service) followLocked(st *Stream, tk Ticket) {
	end := tk.Offset + uint64(tk.Bits)
	if end > s.granted.Load() {
		s.granted.Store(end)
	}
	blocks := uint64((tk.Bits + st.blockBits - 1) / st.blockBits)
	if tk.Seq+blocks > st.nextSeq {
		st.nextSeq = tk.Seq + blocks
	}
}

// retireRangeLocked marks a range spent and advances the prune
// frontier over the contiguous retired prefix. The ledger bits behind
// the frontier are dropped only once that spent prefix is at least as
// long as the live part (and at least 2^15 bits): a compaction then
// copies no more bits than retirement freed since the last one, so
// retirement costs amortized O(1) per bit, and at every retirement the
// ledger holds at most twice its live bits plus 2^15.
func (s *Service) retireRangeLocked(r *claimRange) {
	r.retired = true
	for len(s.ranges) > 0 && s.ranges[0].retired && s.ranges[0].off == s.frontier {
		s.frontier = s.ranges[0].end
		s.ranges = s.ranges[1:]
	}
	// The frontier may legitimately run ahead of local deposits — a
	// released or abandoned ticket from an allocator whose mirror is
	// ahead of us — so the prune point is clamped to what has actually
	// been deposited.
	prune := s.frontier
	if end := s.ledgerEnd.Load(); prune > end {
		prune = end
	}
	spent := int(prune - s.ledgerBase)
	if spent >= 1<<15 && spent >= s.ledger.Len()-spent {
		s.ledger = s.ledger.Slice(spent, s.ledger.Len())
		s.ledgerBase = prune
	}
}

// copyRangeLocked copies absolute ledger range [off, end).
func (s *Service) copyRangeLocked(off, end uint64) *bitarray.BitArray {
	return s.ledger.Slice(int(off-s.ledgerBase), int(end-s.ledgerBase))
}

// serveClaimsLocked wakes exactly the claims the fresh deposit covers.
func (s *Service) serveClaimsLocked() {
	if len(s.claimWaiters) == 0 {
		return
	}
	covered := s.ledgerEnd.Load()
	kept := s.claimWaiters[:0]
	for _, w := range s.claimWaiters {
		if w.end <= covered {
			w.bits = s.copyRangeLocked(w.off, w.end)
			s.retireRangeLocked(w.r)
			s.stats.ClaimedBits += uint64(w.end - w.off)
			close(w.done)
		} else {
			kept = append(kept, w)
		}
	}
	s.claimWaiters = kept
}

// abandonClaim handles a claim whose deadline or cancel fired: if a
// deposit served it first the bits win; otherwise the range is retired
// unread (spent ledger, mirrored by the peer's own claim or release).
func (s *Service) abandonClaim(w *claimWaiter, failErr error) (*bitarray.BitArray, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.done:
		return w.bits, w.err
	default:
	}
	for i, q := range s.claimWaiters {
		if q == w {
			s.claimWaiters = append(s.claimWaiters[:i], s.claimWaiters[i+1:]...)
			break
		}
	}
	s.retireRangeLocked(w.r)
	s.stats.ReleasedBits += uint64(w.end - w.off)
	return nil, failErr
}
