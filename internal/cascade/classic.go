package cascade

import (
	"encoding/binary"
	"fmt"

	"qkd/internal/bitarray"
	"qkd/internal/rng"
)

// Classic is Brassard-Salvail Cascade: Passes passes of doubling block
// sizes over shared random shuffles, with back-correction — fixing an
// error in pass p flips the parity of the blocks containing that bit in
// every earlier pass, re-exposing errors that hid in even-sized groups.
//
// The initial block size is chosen from EstimatedQBER as k1 ~ 0.73/e,
// the Brassard-Salvail heuristic. The estimate typically comes from the
// link's running history (the paper: the protocol "will not disclose
// too many bits if the number of errors is low, but ... will accurately
// detect and correct a large number of errors ... even if that number
// is well above the historical average").
type Classic struct {
	// EstimatedQBER sizes the first-pass blocks. The reference's value
	// is transmitted at protocol start, so only its setting matters.
	EstimatedQBER float64
	// Passes is the number of doubling passes; Brassard-Salvail use 4.
	Passes int
	// seedRand drives the reference's choice of shuffle seeds.
	seedRand *rng.SplitMix64
}

// NewClassic returns a four-pass Cascade with the given prior error
// estimate.
func NewClassic(estimatedQBER float64, seed uint64) *Classic {
	return &Classic{
		EstimatedQBER: estimatedQBER,
		Passes:        4,
		seedRand:      rng.NewSplitMix64(seed),
	}
}

// Name implements Protocol.
func (c *Classic) Name() string { return fmt.Sprintf("classic-cascade-%d", c.Passes) }

// blockSize1 computes the first-pass block size from the error estimate.
func (c *Classic) blockSize1(n int) int {
	e := c.EstimatedQBER
	if e < 0.001 {
		e = 0.001
	}
	k := int(0.73/e + 0.5)
	if k < 4 {
		k = 4
	}
	if k > n {
		k = n
	}
	return k
}

// permFor derives the pass permutation: pass 0 is the identity
// (returned as nil so consumers can take word-parallel fast paths),
// later passes are Fisher-Yates shuffles of the given seed.
func permFor(pass int, seed uint64, n int) []int {
	if pass == 0 {
		return nil
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.NewSplitMix64(seed).Shuffle(perm)
	return perm
}

// appendClassicStart appends the reference's opening message:
// k1 uint32 | passes uint32 | seed[1..passes-1] uint64 each.
func appendClassicStart(dst []byte, k1, passes int, seeds []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k1))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(passes))
	for _, s := range seeds {
		dst = binary.LittleEndian.AppendUint64(dst, s)
	}
	return dst
}

// RunReference implements Protocol.
func (c *Classic) RunReference(m Messenger, key *bitarray.BitArray) (int, error) {
	l := &link{m: m}
	n := key.Len()
	if err := l.recvHello(n); err != nil {
		return 0, err
	}

	k1 := c.blockSize1(n)
	seeds := make([]uint64, c.Passes-1)
	for i := range seeds {
		seeds[i] = c.seedRand.Uint64()
	}
	if err := l.send(appendClassicStart(l.start(msgPassStart), k1, c.Passes, seeds)); err != nil {
		return 0, err
	}

	// Precompute per-pass prefix parities over the (static) key: every
	// block parity and every dichotomic query then answers in O(1) from
	// two packed prefix bits.
	prefixes := make([]*bitarray.PrefixParity, c.Passes)
	prefixes[0] = key.PrefixParities(nil, nil)
	for p := 1; p < c.Passes; p++ {
		prefixes[p] = key.PrefixParities(permFor(p, seeds[p-1], n), nil)
	}

	disclosed := 0
	for pass := 0; pass < c.Passes; pass++ {
		// Send all block parities for this pass.
		k := k1 << pass
		if k > n {
			k = n
		}
		blocks := (n + k - 1) / k
		par := bitarray.New(blocks)
		for b := 0; b < blocks; b++ {
			lo, hi := b*k, (b+1)*k
			if hi > n {
				hi = n
			}
			if prefixes[pass].Range(lo, hi) == 1 {
				par.Set(b, 1)
			}
		}
		if err := l.send(append(l.start(msgBlocks), par.Bytes()...)); err != nil {
			return disclosed, err
		}
		disclosed += blocks

		cur := pass
		d, finished, err := l.serveRound(func(qp uint32, lo, hi int) (int, error) {
			if int(qp) > cur || lo < 0 || hi > n || lo >= hi {
				return 0, fmt.Errorf("%w: classic query out of range", errProtocol)
			}
			return prefixes[qp].Range(lo, hi), nil
		})
		disclosed += d
		if err != nil {
			return disclosed, err
		}
		if finished {
			if pass != c.Passes-1 {
				return disclosed, fmt.Errorf("%w: corrector finished early at pass %d", errProtocol, pass)
			}
			return disclosed, nil
		}
	}
	return disclosed, fmt.Errorf("cascade: classic reference ran past final pass")
}

// passState is the corrector's bookkeeping for one started pass. perm
// and invPerm are nil for pass 0 (the identity); pp caches the pass's
// prefix-parity index, rebuilt whenever a wave needs it against a fresh
// work snapshot.
type passState struct {
	perm    []int
	invPerm []int
	k       int
	diff    []int // per block: our parity XOR reference parity
	pp      *bitarray.PrefixParity
}

// member maps a pass rank to its absolute bit index.
func (st *passState) member(r int) int {
	if st.perm == nil {
		return r
	}
	return st.perm[r]
}

// passList is the corrector's started passes, the searchIndex of its
// waves: a search's src is its pass.
type passList []*passState

func (ps *passList) parity(src, lo, hi int) int { return (*ps)[src].pp.Range(lo, hi) }
func (ps *passList) member(src, r int) int      { return (*ps)[src].member(r) }

// RunCorrect implements Protocol.
func (c *Classic) RunCorrect(m Messenger, key *bitarray.BitArray) (*Result, error) {
	l := &link{m: m}
	work := key.Clone()
	n := work.Len()
	if err := l.sendHello(n); err != nil {
		return nil, err
	}
	body, err := l.recv(msgPassStart)
	if err != nil {
		return nil, err
	}
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: short classic start", errProtocol)
	}
	k1 := int(binary.LittleEndian.Uint32(body[0:]))
	passes := int(binary.LittleEndian.Uint32(body[4:]))
	if k1 <= 0 || passes <= 0 || passes > 32 || len(body) < 8+8*(passes-1) {
		return nil, fmt.Errorf("%w: bad classic start", errProtocol)
	}
	seeds := make([]uint64, passes-1)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint64(body[8+8*i:])
	}

	res := &Result{Corrected: work}
	states := make(passList, 0, passes)

	type pb struct{ pass, block int }
	var queue []pb

	flip := func(realIdx int) {
		work.Flip(realIdx)
		res.Flips++
		for p, st := range states {
			pos := realIdx
			if st.invPerm != nil {
				pos = st.invPerm[realIdx]
			}
			b := pos / st.k
			st.diff[b] ^= 1
			if st.diff[b] == 1 {
				queue = append(queue, pb{p, b})
			}
		}
	}

	// process drains the queue in waves: every mismatched block's
	// search runs in parallel against the un-flipped work string, then
	// the located errors are applied and their cascading consequences
	// enqueued. Each wave rebuilds the prefix-parity index of every
	// pass it touches against the current work snapshot, so queries
	// inside runWave are O(1) lookups.
	process := func() error {
		for len(queue) > 0 {
			seen := make(map[pb]bool)
			rebound := make(map[int]bool)
			var searches []searchState
			for _, item := range queue {
				st := states[item.pass]
				if seen[item] || st.diff[item.block] != 1 {
					continue
				}
				seen[item] = true
				if !rebound[item.pass] {
					st.pp = work.PrefixParities(st.perm, st.pp)
					rebound[item.pass] = true
				}
				lo := item.block * st.k
				hi := lo + st.k
				if hi > n {
					hi = n
				}
				searches = append(searches, searchState{key: uint32(item.pass), src: item.pass, lo: lo, hi: hi})
			}
			queue = queue[:0]
			if len(searches) == 0 {
				return nil
			}
			bits, d, err := l.runWave(&states, searches)
			if err != nil {
				return err
			}
			res.Disclosed += d
			for _, b := range bits {
				flip(b)
			}
		}
		return nil
	}

	for pass := 0; pass < passes; pass++ {
		res.Rounds = pass + 1
		k := k1 << pass
		if k > n {
			k = n
		}
		var seed uint64
		if pass > 0 {
			seed = seeds[pass-1]
		}
		perm := permFor(pass, seed, n)
		var inv []int
		if perm != nil {
			inv = make([]int, n)
			for pos, r := range perm {
				inv[r] = pos
			}
		}
		blocks := (n + k - 1) / k
		st := &passState{perm: perm, invPerm: inv, k: k, diff: make([]int, blocks)}
		states = append(states, st)

		body, err := l.recv(msgBlocks)
		if err != nil {
			return nil, err
		}
		refPar := bitarray.FromBytes(body)
		if refPar.Len() < blocks {
			return nil, fmt.Errorf("%w: reference sent %d block parities, need %d",
				errProtocol, refPar.Len(), blocks)
		}
		res.Disclosed += blocks
		st.pp = work.PrefixParities(perm, nil)
		for b := 0; b < blocks; b++ {
			lo, hi := b*k, (b+1)*k
			if hi > n {
				hi = n
			}
			st.diff[b] = st.pp.Range(lo, hi) ^ refPar.Get(b)
			if st.diff[b] == 1 {
				queue = append(queue, pb{pass, b})
			}
		}
		if err := process(); err != nil {
			return nil, err
		}
		done := byte(0)
		if pass == passes-1 {
			done = 1
		}
		if err := l.send(append(l.start(msgRoundDone), done)); err != nil {
			return nil, err
		}
	}
	if err := l.send(l.start(msgFinish)); err != nil {
		return nil, err
	}
	return res, nil
}
