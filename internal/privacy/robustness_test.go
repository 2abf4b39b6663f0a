package privacy

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"qkd/internal/rng"
)

// DecodeParams consumes attacker-controlled bytes; it must reject
// garbage with an error, never panic — and never accept parameters
// whose polynomial is reducible (which would break universality).

// paramsInvariant reports how accepted parameters break the sizes
// Apply relies on.
func paramsInvariant(q *Params) error {
	if q.M <= 0 || q.M > q.N() || q.Multiplier.Len() != q.N() || q.Addend.Len() != q.M {
		return fmt.Errorf("M %d, N %d, multiplier %d bits, addend %d bits",
			q.M, q.N(), q.Multiplier.Len(), q.Addend.Len())
	}
	return nil
}

// FuzzDecodeParams: DecodeParams never panics, anything it accepts has
// consistent sizes, and it re-encodes to bytes that decode to the same
// parameters. The grammar is not canonical (overlong varints and the
// padding bits of the two bit fields decode), so the round trip
// compares values, not bytes.
func FuzzDecodeParams(f *testing.F) {
	p, err := NewParams(256, 128, rng.NewSplitMix64(4))
	if err != nil {
		f.Fatal(err)
	}
	valid := p.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:3])
	// A 2^63-scale output length: it must be bounded before it is cast
	// to int, where it would wrap negative.
	_, mLen := binary.Uvarint(valid)
	f.Add(append(binary.AppendUvarint(nil, 1<<63), valid[mLen:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeParams(b)
		if err != nil {
			return
		}
		if err := paramsInvariant(q); err != nil {
			t.Fatalf("accepted inconsistent params: %v", err)
		}
		again, err := DecodeParams(q.Encode())
		if err != nil {
			t.Fatalf("re-encoded params rejected: %v", err)
		}
		if again.M != q.M || !slices.Equal(again.PolyExps, q.PolyExps) ||
			!again.Multiplier.Equal(q.Multiplier) || !again.Addend.Equal(q.Addend) {
			t.Fatal("re-encoded params decode to a different value")
		}
	})
}

func TestDecodeParamsBitflips(t *testing.T) {
	gen := rng.NewSplitMix64(4)
	p, err := NewParams(256, 128, gen)
	if err != nil {
		t.Fatal(err)
	}
	valid := p.Encode()
	accepted := 0
	for trial := 0; trial < 200; trial++ {
		buf := append([]byte(nil), valid...)
		buf[gen.Intn(len(buf))] ^= byte(1 << gen.Intn(8))
		q, err := DecodeParams(buf)
		if err != nil {
			continue
		}
		accepted++
		// Anything accepted must still be structurally sound: a field
		// polynomial the validator certified and consistent sizes.
		if err := paramsInvariant(q); err != nil {
			t.Fatalf("trial %d: accepted inconsistent params: %v", trial, err)
		}
	}
	// Multiplier/addend flips are legitimately accepted (they are just
	// different hash family members); header flips must mostly fail.
	t.Logf("%d/200 single-bit corruptions decoded (multiplier/addend bits)", accepted)
}
