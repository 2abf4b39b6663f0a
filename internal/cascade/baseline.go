package cascade

import (
	"fmt"

	"qkd/internal/bitarray"
)

// BlockParity is the conventional telecom-style parity-check scheme the
// paper's appendix lists as the alternative to Cascade: one fixed
// partition into BlockSize-bit blocks, with mismatched blocks repaired
// by dichotomic search, iterated over the same partition.
//
// Because the partition never changes, a block holding an even number
// of errors always shows matching parity and its errors are never
// found: the scheme converges with residual errors, which is exactly
// the deficiency Cascade's shuffled passes repair. Experiment E4
// quantifies the gap.
type BlockParity struct {
	// BlockSize is the fixed partition width.
	BlockSize int
	// MaxIters caps repetitions over the partition.
	MaxIters int
}

// NewBlockParity returns the baseline with the given block size.
func NewBlockParity(blockSize int) *BlockParity {
	return &BlockParity{BlockSize: blockSize, MaxIters: 32}
}

// Name implements Protocol.
func (c *BlockParity) Name() string { return fmt.Sprintf("block-parity-%d", c.BlockSize) }

func (c *BlockParity) geometry(n int) (k, blocks int) {
	k = c.BlockSize
	if k <= 0 || k > n {
		k = n
	}
	return k, (n + k - 1) / k
}

// RunReference implements Protocol.
func (c *BlockParity) RunReference(m Messenger, key *bitarray.BitArray) (int, error) {
	l := &link{m: m}
	n := key.Len()
	if err := l.recvHello(n); err != nil {
		return 0, err
	}
	k, blocks := c.geometry(n)
	disclosed := 0
	for iter := 0; iter < c.MaxIters; iter++ {
		par := bitarray.New(blocks)
		for b := 0; b < blocks; b++ {
			lo, hi := b*k, (b+1)*k
			if hi > n {
				hi = n
			}
			if key.ParityRange(lo, hi) == 1 {
				par.Set(b, 1)
			}
		}
		if err := l.send(append(l.start(msgBlocks), par.Bytes()...)); err != nil {
			return disclosed, err
		}
		disclosed += blocks

		d, finished, err := l.serveRound(func(_ uint32, lo, hi int) (int, error) {
			if lo < 0 || hi > n || lo >= hi {
				return 0, fmt.Errorf("%w: query out of range", errProtocol)
			}
			return key.ParityRange(lo, hi), nil
		})
		disclosed += d
		if err != nil {
			return disclosed, err
		}
		if finished {
			return disclosed, nil
		}
	}
	return disclosed, fmt.Errorf("cascade: block-parity reference exceeded %d iterations", c.MaxIters)
}

// RunCorrect implements Protocol.
func (c *BlockParity) RunCorrect(m Messenger, key *bitarray.BitArray) (*Result, error) {
	l := &link{m: m}
	work := key.Clone()
	n := work.Len()
	if err := l.sendHello(n); err != nil {
		return nil, err
	}
	k, blocks := c.geometry(n)
	// One pass in natural order: Classic's first pass, never shuffled.
	pass := &passState{}
	idx := passList{pass}
	var searches []searchState
	res := &Result{Corrected: work}
	for iter := 0; iter < c.MaxIters; iter++ {
		res.Rounds = iter + 1
		body, err := l.recv(msgBlocks)
		if err != nil {
			return nil, err
		}
		refPar := bitarray.FromBytes(body)
		if refPar.Len() < blocks {
			return nil, fmt.Errorf("%w: short block parities", errProtocol)
		}
		res.Disclosed += blocks

		pass.pp = work.PrefixParities(nil, pass.pp)
		searches = searches[:0]
		for b := 0; b < blocks; b++ {
			lo, hi := b*k, (b+1)*k
			if hi > n {
				hi = n
			}
			if pass.pp.Range(lo, hi) != refPar.Get(b) {
				searches = append(searches, searchState{lo: lo, hi: hi})
			}
		}
		if len(searches) == 0 {
			if err := l.send(append(l.start(msgRoundDone), 1)); err != nil {
				return nil, err
			}
			if err := l.send(l.start(msgFinish)); err != nil {
				return nil, err
			}
			return res, nil
		}
		bits, d, err := l.runWave(&idx, searches)
		if err != nil {
			return nil, err
		}
		res.Disclosed += d
		for _, bit := range bits {
			work.Flip(bit)
			res.Flips++
		}
		if err := l.send(append(l.start(msgRoundDone), 0)); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cascade: block-parity corrector exceeded %d iterations", c.MaxIters)
}
