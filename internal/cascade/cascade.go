// Package cascade implements the error-correction stage of the QKD
// pipeline: interactive protocols that let Alice and Bob find and fix
// the disagreements between their sifted bit strings while revealing —
// and carefully counting — as few parity bits as possible, since every
// disclosed parity must later be paid for during privacy amplification.
//
// Three protocols are provided:
//
//   - BBN: the paper's novel Cascade variant. The reference side defines
//     64 pseudo-random subsets of the sifted bits as LFSR bit strings,
//     identified on the wire by their 32-bit seeds, and discloses each
//     subset's parity. The correcting side locates one error per
//     mismatched subset by dichotomic search, flips it, updates the
//     recorded parities of every subset containing that bit ("this will
//     clear up some discrepancies but may introduce other new ones, and
//     so the process continues"), and rounds repeat with fresh seeds
//     until a round opens clean.
//
//   - Classic: Brassard-Salvail Cascade (Lect. Notes in Comp. Sci. 765),
//     the protocol the paper's variant descends from: multiple passes of
//     doubling block sizes over shared shuffles, with the trademark
//     cascading back-correction across passes.
//
//   - BlockParity: "a conventional parity-checking scheme as widely
//     employed in telecommunications systems" (paper appendix) — one
//     fixed partition, retried; it cannot fix paired errors within a
//     block and serves as the baseline Cascade is measured against.
//
// All protocols run between a *reference* side, whose string is the
// target, and a *correcting* side, whose string converges to it. They
// communicate over the small Messenger interface so they can run over
// the in-memory test harness or the real public channel alike, and all
// parity traffic is batched (see wire.go) so the per-message cost of
// channel authentication stays affordable.
package cascade

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"qkd/internal/bitarray"
	"qkd/internal/rng"
)

// Messenger is the minimal reliable message transport the protocols
// need. Package core adapts channel.Conn to it.
//
// Send must not keep p, or anything aliasing it, after it returns: a
// protocol run builds every message it sends in one reused buffer.
// Implementations copy p or write it out before returning.
type Messenger interface {
	Send(p []byte) error
	Recv() ([]byte, error)
}

// Result summarizes a completed correction from the correcting side.
type Result struct {
	// Corrected is the corrector's string after the protocol; with
	// overwhelming probability it equals the reference string.
	Corrected *bitarray.BitArray
	// Disclosed counts parity bits revealed on the public channel.
	// Privacy amplification must subtract this.
	Disclosed int
	// Flips is the number of bit errors found and fixed (the "e" input
	// to entropy estimation).
	Flips int
	// Rounds (BBN) or passes (Classic) executed.
	Rounds int
}

// Protocol is one interactive error-correction scheme.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// RunReference serves the side whose string is authoritative.
	// It returns the number of parity bits it disclosed.
	RunReference(m Messenger, key *bitarray.BitArray) (disclosed int, err error)
	// RunCorrect runs the side that repairs its string.
	RunCorrect(m Messenger, key *bitarray.BitArray) (*Result, error)
}

// Wire message types. Payloads are little-endian packed.
//
// Parity queries are BATCHED: one query message carries every active
// binary search's current range, and one reply carries all the parity
// bits. This matters twice over: it turns O(errors * log n) round trips
// into O(log n), and — because the Wegman-Carter authentication layer
// pays a fixed pad cost per message — it keeps error correction from
// draining the authentication pool faster than distillation refills it.
const (
	msgHello     = 1 // corrector -> reference: uint32 n
	msgSubsets   = 2 // reference -> corrector: round seeds + parities (BBN)
	msgQuery     = 3 // corrector -> reference: batched parity queries
	msgParity    = 4 // reference -> corrector: parity bitmap
	msgRoundDone = 5 // corrector -> reference: clean flag
	msgFinish    = 6 // corrector -> reference: protocol complete
	msgPassStart = 7 // reference -> corrector: k1, passes, shuffle seeds (Classic)
	msgBlocks    = 8 // reference -> corrector: block parities
)

var errProtocol = errors.New("cascade: protocol violation")

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

// link is one protocol run's end of the public channel: the Messenger,
// and the scratch that outgoing messages and the corrector's waves are
// built in, reused for every message of the run.
type link struct {
	m      Messenger
	msg    []byte         // the message being built
	active []*searchState // runWave's searches still bisecting
	found  []int          // runWave's located errors
}

// start begins a message of type typ in the link's buffer.
func (l *link) start(typ byte) []byte { return append(l.msg[:0], typ) }

// send transmits p, a message begun with start, and keeps its storage
// for the next message.
func (l *link) send(p []byte) error {
	l.msg = p
	return l.m.Send(p)
}

// recv receives a message of type want and returns its body.
func (l *link) recv(want byte) ([]byte, error) {
	p, err := l.m.Recv()
	if err != nil {
		return nil, err
	}
	if len(p) == 0 || p[0] != want {
		got := byte(0)
		if len(p) > 0 {
			got = p[0]
		}
		return nil, fmt.Errorf("%w: expected message %d, got %d", errProtocol, want, got)
	}
	return p[1:], nil
}

// recvEither accepts one of two message types.
func (l *link) recvEither(a, b byte) (byte, []byte, error) {
	p, err := l.m.Recv()
	if err != nil {
		return 0, nil, err
	}
	if len(p) == 0 || (p[0] != a && p[0] != b) {
		return 0, nil, fmt.Errorf("%w: expected message %d or %d", errProtocol, a, b)
	}
	return p[0], p[1:], nil
}

// appendBitmap appends n zero bits, packed LSB-first as
// bitarray.Bytes packs them, and returns the extended message and the
// bitmap's bytes for the caller to set.
func appendBitmap(dst []byte, n int) (msg, bitmap []byte) {
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	return dst, dst[start:]
}

// bitAt returns bit i of a bitmap packed as appendBitmap packs it.
func bitAt(bitmap []byte, i int) int { return int(bitmap[i>>3] >> (i & 7) & 1) }

// subsetState is the word-parallel view of one LFSR parity subset: the
// batched mask, a rank index over its members, and a parity index bound
// to whichever key snapshot the holder last called bind with.
type subsetState struct {
	words []uint64
	mask  bitarray.BitArray
	rank  bitarray.Rank
	px    bitarray.ParityIndex
}

// build materializes the subset for seed over n bits in s's storage:
// the LFSR runs 64 bits per step and the rank index is built from word
// popcounts.
func (s *subsetState) build(seed uint32, n int) {
	s.words = rng.MaskWords(seed, n, s.words)
	s.mask = *bitarray.FromWords(s.words, n)
	s.rank.Build(&s.mask)
}

// bind refreshes the parity index over the given key snapshot.
func (s *subsetState) bind(key *bitarray.BitArray) {
	s.rank.Bind(key, &s.px)
}

// sendHello and recvHello exchange and validate the key length.
func (l *link) sendHello(n int) error {
	return l.send(binary.LittleEndian.AppendUint32(l.start(msgHello), uint32(n)))
}

func (l *link) recvHello(n int) error {
	body, err := l.recv(msgHello)
	if err != nil {
		return err
	}
	if len(body) != 4 || int(binary.LittleEndian.Uint32(body)) != n {
		return fmt.Errorf("%w: key length mismatch in hello", errProtocol)
	}
	return nil
}

// ---------------------------------------------------------------------
// BBN variant
// ---------------------------------------------------------------------

// BBN is the paper's Cascade variant. Construct with NewBBN.
type BBN struct {
	// Subsets per round; the paper uses 64.
	Subsets int
	// MaxRounds caps the protocol; exceeding it means the strings were
	// too different to reconcile (or a protocol bug).
	MaxRounds int
	// seedRand drives the reference side's choice of subset seeds.
	seedRand *rng.SplitMix64
}

// NewBBN returns the paper's configuration: 64 subsets per round.
func NewBBN(seed uint64) *BBN {
	return &BBN{Subsets: 64, MaxRounds: 64, seedRand: rng.NewSplitMix64(seed)}
}

// Name implements Protocol.
func (c *BBN) Name() string { return fmt.Sprintf("bbn-cascade-%d", c.Subsets) }

// bbnRun is one BBN run's state on either side: its link, the round's
// subsets, and the corrector's per-round bookkeeping. Runs recycle it
// through bbnRuns rather than keeping it in the BBN, which core builds
// afresh for every batch; core's batches are one size, so after warmup
// every buffer is already the size a round needs.
type bbnRun struct {
	link
	subs     []*subsetState
	seeds    []uint32 // the round's subset seeds, in subset order
	next     int      // reference: where lookup resumes
	diff     []uint8  // corrector: own XOR reference parity, per subset
	flips    []uint64 // corrector: bits a wave flipped
	nz       []int    // corrector: flips' nonzero words
	searches []searchState
}

var bbnRuns = sync.Pool{New: func() any { return new(bbnRun) }}

func getBBNRun(m Messenger) *bbnRun {
	r := bbnRuns.Get().(*bbnRun)
	r.m = m
	return r
}

func (r *bbnRun) release() {
	r.m = nil
	bbnRuns.Put(r)
}

// subsets returns storage for a round of count subsets.
func (r *bbnRun) subsets(count int) []*subsetState {
	for len(r.subs) < count {
		r.subs = append(r.subs, new(subsetState))
	}
	return r.subs[:count]
}

// lookup returns the round's subset with the given seed, or nil. The
// corrector sends its queries in subset order, so resuming the scan
// after the previous hit finds each within a step or two.
func (r *bbnRun) lookup(seed uint32) *subsetState {
	for range r.seeds {
		if r.next >= len(r.seeds) {
			r.next = 0
		}
		i := r.next
		r.next++
		if r.seeds[i] == seed {
			return r.subs[i]
		}
	}
	return nil
}

// parity and member make a run the searchIndex of its waves: a
// search's src is its subset's position in the round.
func (r *bbnRun) parity(src, lo, hi int) int { return r.subs[src].px.ParityRange(lo, hi) }
func (r *bbnRun) member(src, k int) int      { return r.subs[src].rank.Select(k) }

// RunReference implements Protocol.
func (c *BBN) RunReference(m Messenger, key *bitarray.BitArray) (int, error) {
	r := getBBNRun(m)
	defer r.release()
	n := key.Len()
	if err := r.recvHello(n); err != nil {
		return 0, err
	}
	disclosed := 0
	for round := 0; round < c.MaxRounds; round++ {
		// Announce this round's subsets and our parities. The key never
		// changes on this side, so each subset's parity index is bound
		// once and answers every dichotomic query of the round.
		subs := r.subsets(c.Subsets)
		r.seeds = r.seeds[:0]
		out := binary.LittleEndian.AppendUint32(r.start(msgSubsets), uint32(c.Subsets))
		for _, s := range subs {
			seed := c.seedRand.Uint32()
			if seed == 0 {
				seed = 1
			}
			out = binary.LittleEndian.AppendUint32(out, seed)
			r.seeds = append(r.seeds, seed)
			s.build(seed, n)
			s.bind(key)
		}
		out, par := appendBitmap(out, c.Subsets)
		for i, s := range subs {
			par[i>>3] |= byte(s.px.ParityRange(0, s.rank.Count())) << (i & 7)
		}
		if err := r.send(out); err != nil {
			return disclosed, err
		}
		disclosed += c.Subsets

		d, finished, err := r.serveRound(func(seed uint32, lo, hi int) (int, error) {
			s := r.lookup(seed)
			if s == nil {
				return 0, fmt.Errorf("%w: query for unannounced subset %#x", errProtocol, seed)
			}
			if lo < 0 || hi > s.rank.Count() || lo >= hi {
				return 0, fmt.Errorf("%w: query range [%d,%d) of %d", errProtocol, lo, hi, s.rank.Count())
			}
			return s.px.ParityRange(lo, hi), nil
		})
		disclosed += d
		if err != nil {
			return disclosed, err
		}
		if finished {
			return disclosed, nil
		}
	}
	return disclosed, fmt.Errorf("cascade: reference exceeded %d rounds", c.MaxRounds)
}

// RunCorrect implements Protocol.
func (c *BBN) RunCorrect(m Messenger, key *bitarray.BitArray) (*Result, error) {
	r := getBBNRun(m)
	defer r.release()
	work := key.Clone()
	n := work.Len()
	if err := r.sendHello(n); err != nil {
		return nil, err
	}
	r.flips = append(r.flips[:0], make([]uint64, (n+63)/64)...)
	flips := bitarray.FromWords(r.flips, n)

	res := &Result{Corrected: work}
	for round := 0; round < c.MaxRounds; round++ {
		res.Rounds = round + 1
		body, err := r.recv(msgSubsets)
		if err != nil {
			return nil, err
		}
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: short subsets message", errProtocol)
		}
		count := int(binary.LittleEndian.Uint32(body))
		if count <= 0 || count > (len(body)-4)/4 || len(body) < 4+4*count+(count+7)/8 {
			return nil, fmt.Errorf("%w: truncated subsets message", errProtocol)
		}
		subs := r.subsets(count)
		r.seeds = r.seeds[:0]
		refPar := body[4+4*count:]
		res.Disclosed += count
		// diff[i] = our parity XOR reference parity for subset i.
		if cap(r.diff) < count {
			r.diff = make([]uint8, count)
		}
		diff := r.diff[:count]
		mismatches := 0
		for i, s := range subs {
			r.seeds = append(r.seeds, binary.LittleEndian.Uint32(body[4+4*i:]))
			s.build(r.seeds[i], n)
			diff[i] = uint8(work.ParityMasked(&s.mask) ^ bitAt(refPar, i))
			mismatches += int(diff[i])
		}

		if mismatches == 0 {
			// Clean round: declare completion.
			if err := r.send(append(r.start(msgRoundDone), 1)); err != nil {
				return nil, err
			}
			if err := r.send(r.start(msgFinish)); err != nil {
				return nil, err
			}
			return res, nil
		}

		// Fix errors in waves until every subset parity agrees. Each
		// wave rebinds the mismatched subsets' parity indexes to the
		// current work snapshot, then the post-flip bookkeeping updates
		// every subset's diff with one sparse word-parity per subset
		// instead of a per-flip per-subset bit probe.
		for mismatches > 0 {
			searches := r.searches[:0]
			for i, d := range diff {
				if d != 1 {
					continue
				}
				s := subs[i]
				if s.rank.Count() == 0 {
					return nil, fmt.Errorf("%w: mismatched empty subset", errProtocol)
				}
				s.bind(work)
				searches = append(searches, searchState{key: r.seeds[i], src: i, hi: s.rank.Count()})
			}
			r.searches = searches
			bits, d, err := r.runWave(r, searches)
			if err != nil {
				return nil, err
			}
			res.Disclosed += d
			for _, b := range bits {
				work.Flip(b)
				res.Flips++
				flips.Set(b, 1)
			}
			r.nz = flips.NonzeroWords(r.nz[:0])
			mismatches = 0
			for i, s := range subs {
				diff[i] ^= uint8(flips.ParityMaskedAt(&s.mask, r.nz))
				mismatches += int(diff[i])
			}
			for _, w := range r.nz {
				r.flips[w] = 0
			}
		}
		if err := r.send(append(r.start(msgRoundDone), 0)); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cascade: corrector exceeded %d rounds", c.MaxRounds)
}

// Run executes a protocol end to end over an in-memory transport:
// the reference side serves ref in a goroutine while the corrector
// repairs noisy toward it. It returns the corrector's result and the
// reference side's disclosed-bit count (which must match the
// corrector's own accounting).
func Run(p Protocol, ref, noisy *bitarray.BitArray) (*Result, int, error) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	mRef := &chanMessenger{out: ab, in: ba}
	mCor := &chanMessenger{out: ba, in: ab}
	type refOut struct {
		disclosed int
		err       error
	}
	ch := make(chan refOut, 1)
	go func() {
		d, err := p.RunReference(mRef, ref)
		ch <- refOut{d, err}
	}()
	res, err := p.RunCorrect(mCor, noisy)
	ro := <-ch
	if err != nil {
		return nil, ro.disclosed, err
	}
	if ro.err != nil {
		return nil, ro.disclosed, ro.err
	}
	return res, ro.disclosed, nil
}

// chanMessenger is the minimal in-memory Messenger backing Run.
type chanMessenger struct {
	out chan<- []byte
	in  <-chan []byte
}

func (m *chanMessenger) Send(p []byte) error {
	q := make([]byte, len(p))
	copy(q, p)
	m.out <- q
	return nil
}

func (m *chanMessenger) Recv() ([]byte, error) { return <-m.in, nil }
