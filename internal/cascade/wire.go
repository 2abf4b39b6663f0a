package cascade

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// queryEntry is one active binary search's parity request: the parity
// of positions [Lo, Mid) of the index sequence identified by Key (an
// LFSR subset seed for the BBN protocol, a pass number for Classic,
// zero for the block-parity baseline).
type queryEntry struct {
	Key uint32
	Lo  uint32
	Hi  uint32
}

// A query batch is count uint32 | count entries of queryLen bytes, each
// key | lo | hi. Both ends work on the message bytes in place: the
// corrector appends entries to the message it is building, and the
// reference reads them from the message it received.
const queryLen = 12

// appendQueryCount begins a batch of n entries.
func appendQueryCount(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendQuery appends one entry to a batch.
func appendQuery(dst []byte, e queryEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, e.Key)
	dst = binary.LittleEndian.AppendUint32(dst, e.Lo)
	return binary.LittleEndian.AppendUint32(dst, e.Hi)
}

// queryBatch is a received batch's entries, read from the message.
type queryBatch []byte

// decodeQueries validates a query batch and returns its entries.
func decodeQueries(body []byte) (queryBatch, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: short query batch", errProtocol)
	}
	n := binary.LittleEndian.Uint32(body)
	if rest := len(body) - 4; rest%queryLen != 0 || uint64(rest/queryLen) != uint64(n) {
		return nil, fmt.Errorf("%w: query batch length %d for %d entries", errProtocol, len(body), n)
	}
	return queryBatch(body[4:]), nil
}

// len returns the number of entries.
func (q queryBatch) len() int { return len(q) / queryLen }

// at returns entry i.
func (q queryBatch) at(i int) queryEntry {
	b := q[queryLen*i : queryLen*(i+1)]
	return queryEntry{
		Key: binary.LittleEndian.Uint32(b),
		Lo:  binary.LittleEndian.Uint32(b[4:]),
		Hi:  binary.LittleEndian.Uint32(b[8:]),
	}
}

// answerFunc resolves one parity query on the reference side. It
// returns the reference string's parity over the requested range.
type answerFunc func(key uint32, lo, hi int) (int, error)

// serveRound answers batched parity queries until the corrector sends
// a round-done message. It returns the number of parity bits disclosed
// and whether the corrector declared the protocol complete.
func (l *link) serveRound(answer answerFunc) (disclosed int, finished bool, err error) {
	for {
		typ, body, err := l.recvEither(msgQuery, msgRoundDone)
		if err != nil {
			return disclosed, false, err
		}
		if typ == msgRoundDone {
			if len(body) != 1 {
				return disclosed, false, fmt.Errorf("%w: bad round-done", errProtocol)
			}
			if body[0] == 1 {
				if _, err := l.recv(msgFinish); err != nil {
					return disclosed, false, err
				}
				return disclosed, true, nil
			}
			return disclosed, false, nil
		}
		q, err := decodeQueries(body)
		if err != nil {
			return disclosed, false, err
		}
		out, bitmap := appendBitmap(l.start(msgParity), q.len())
		for i := range q.len() {
			e := q.at(i)
			p, err := answer(e.Key, int(e.Lo), int(e.Hi))
			if err != nil {
				return disclosed, false, err
			}
			bitmap[i>>3] |= byte(p) << (i & 7)
		}
		if err := l.send(out); err != nil {
			return disclosed, false, err
		}
		disclosed += q.len()
	}
}

// searchState is one in-flight dichotomic search on the corrector side:
// the parity of the corrector's snapshot over member ranks [lo, hi) of
// index src is known to differ from the reference, so the half-open
// window homes in on a genuinely erroneous bit.
type searchState struct {
	key    uint32 // the wire key of src's index sequence
	src    int
	lo, hi int
}

// searchIndex answers a wave's searches from the protocol's rank and
// prefix indexes, bound to the work string as it stood when the wave
// began (work is not modified while a wave runs, so the snapshot stays
// truthful).
type searchIndex interface {
	// parity returns the snapshot's parity over member ranks [lo, hi)
	// of index src.
	parity(src, lo, hi int) int
	// member maps a member rank of index src to its absolute bit index.
	member(src, r int) int
}

// runWave drives a set of parallel searches to completion, one batched
// query message per bisection level. Flips are NOT applied; the caller
// receives the sorted, deduplicated erroneous bit indices (every index
// is a true disagreement between work and the reference), in storage
// the link reuses on its next wave.
func (l *link) runWave(idx searchIndex, searches []searchState) (bits []int, disclosed int, err error) {
	found, active := l.found[:0], l.active[:0]
	for i := range searches {
		s := &searches[i]
		if s.hi-s.lo == 1 {
			found = append(found, idx.member(s.src, s.lo))
		} else if s.hi > s.lo {
			active = append(active, s)
		}
	}
	for len(active) > 0 {
		out := appendQueryCount(l.start(msgQuery), len(active))
		for _, s := range active {
			out = appendQuery(out, queryEntry{Key: s.key, Lo: uint32(s.lo), Hi: uint32((s.lo + s.hi) / 2)})
		}
		if err := l.send(out); err != nil {
			return nil, disclosed, err
		}
		bitmap, err := l.recv(msgParity)
		if err != nil {
			return nil, disclosed, err
		}
		if 8*len(bitmap) < len(active) {
			return nil, disclosed, fmt.Errorf("%w: short parity bitmap", errProtocol)
		}
		disclosed += len(active)
		next := active[:0]
		for i, s := range active {
			mid := (s.lo + s.hi) / 2
			if idx.parity(s.src, s.lo, mid) != bitAt(bitmap, i) {
				s.hi = mid
			} else {
				s.lo = mid
			}
			if s.hi-s.lo == 1 {
				found = append(found, idx.member(s.src, s.lo))
			} else {
				next = append(next, s)
			}
		}
		active = next
	}
	l.active = active
	// Sorted, the order the pinned transcripts apply flips in: Classic's
	// cascading back-correction enqueues follow-up searches in flip
	// order, so the order reaches the wire.
	slices.Sort(found)
	l.found = slices.Compact(found)
	return l.found, disclosed, nil
}
