package kms

import (
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/keypool"
)

// PoolView adapts a Service to keypool.Pool, so consumers written
// against the raw reservoir (Wegman-Carter MACs, the distillation
// engines' deposit path) plug into the KDS unchanged: deposits ingest,
// and every withdrawal allocates and claims on a one-bit-block stream
// at the view's class — TryConsume as an immediate grant, Consume
// through the QoS scheduler.
//
// Withdrawals through a PoolView are granted in local request order,
// so two mirrored PoolViews agree bit-for-bit only if both ends
// withdraw in the same order. Consumers that need order-independent
// agreement, as IKE does, use Streams directly.
type PoolView struct {
	svc *Service
	st  *Stream
}

var _ keypool.Pool = (*PoolView)(nil)

// PoolView returns the service's keypool.Pool adapter for the class
// (one shared view per class; repeated calls return the same stream).
func (s *Service) PoolView(c Class) *PoolView {
	name := "pool/" + c.String()
	s.mu.Lock()
	st, ok := s.streams[name]
	if !ok {
		st = &Stream{svc: s, name: name, blockBits: 1, class: c}
		s.streams[name] = st
	}
	s.mu.Unlock()
	return &PoolView{svc: s, st: st}
}

// Deposit ingests bits from the default source.
func (v *PoolView) Deposit(bits *bitarray.BitArray) { v.svc.Ingest(bits) }

// Available reports the unallocated ledger bits on hand.
func (v *PoolView) Available() int { return v.svc.Available() }

// Stats reports service-wide lifetime totals: bits ingested and bits
// delivered (stream claims and releases).
func (v *PoolView) Stats() (deposited, consumed uint64) {
	st := v.svc.Stats()
	return st.DepositedBits, st.ClaimedBits + st.ReleasedBits
}

// TryConsume removes exactly n bits or fails without removing any: an
// immediate scheduler grant on the ledger, claimed at once.
func (v *PoolView) TryConsume(n int) (*bitarray.BitArray, error) {
	if n == 0 {
		return bitarray.New(0), nil
	}
	tk, err := v.st.TryAllocate(n)
	if err != nil {
		return nil, err
	}
	return v.st.Claim(tk, 0, nil)
}

// Consume removes exactly n bits, blocking in the QoS scheduler at the
// view's class until they are granted or the timeout elapses (timeout
// <= 0 blocks indefinitely).
func (v *PoolView) Consume(n int, timeout time.Duration) (*bitarray.BitArray, error) {
	if n == 0 {
		return bitarray.New(0), nil
	}
	_, bits, err := v.st.Next(n, timeout, nil)
	return bits, err
}
