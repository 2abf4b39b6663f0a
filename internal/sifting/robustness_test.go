package sifting

import (
	"fmt"
	"testing"

	"qkd/internal/qframe"
	"qkd/internal/rng"
)

// Decoders face attacker-controlled bytes from the public channel; they
// must reject garbage with errors, never panic or over-allocate. The
// grammar is not canonical (binary.Uvarint accepts overlong varints,
// padding bits are ignored, and trailing bytes after the last field are
// dropped), so the fuzz round trips compare decoded values, not bytes.

// siftInvariant reports how an accepted message breaks the structure
// Respond and Apply rely on: strictly increasing, in-range slots, and
// one basis bit per slot.
func siftInvariant(m *SiftMessage) error {
	prev := int64(-1)
	for i, s := range m.Slots {
		if int64(s) <= prev || int(s) >= m.SlotsTotal {
			return fmt.Errorf("slot %d = %d after %d of %d", i, s, prev, m.SlotsTotal)
		}
		prev = int64(s)
	}
	if m.Bases.Len() != len(m.Slots) {
		return fmt.Errorf("%d basis bits for %d slots", m.Bases.Len(), len(m.Slots))
	}
	return nil
}

func sameSift(a, b *SiftMessage) bool {
	if a.FrameID != b.FrameID || a.SlotsTotal != b.SlotsTotal || len(a.Slots) != len(b.Slots) ||
		!a.Bases.Equal(b.Bases) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	return true
}

// validSift is a hand-built message.
func validSift() *SiftMessage {
	m := &SiftMessage{FrameID: 3, SlotsTotal: 1000}
	for s := 20; s < 1000; s += 37 {
		m.AddDetection(uint32(s), qframe.BasisRect)
	}
	return m
}

// giantSiftClaim is a tiny payload claiming billions of detections.
func giantSiftClaim() []byte {
	var p []byte
	p = append(p, 0x01)         // frame id
	p = appendUvarint(p, 1<<40) // slots total
	p = appendUvarint(p, 1<<39) // detection count
	return p
}

func FuzzDecodeSift(f *testing.F) {
	valid := validSift().Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add((&SiftMessage{FrameID: 1, SlotsTotal: 8}).Encode())
	f.Add(giantSiftClaim())
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeSift(p)
		if err != nil {
			return
		}
		if err := siftInvariant(m); err != nil {
			t.Fatalf("accepted inconsistent message: %v", err)
		}
		again, err := DecodeSift(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if !sameSift(m, again) {
			t.Fatal("re-encoded message decodes to a different value")
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	keep := rng.NewSplitMix64(5).Bits(29)
	valid := (&Response{FrameID: 7, Keep: keep}).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add((&Response{FrameID: 1, Keep: rng.NewSplitMix64(6).Bits(0)}).Encode())
	// A 2^63-bit keep claim: it must be bounded before it is cast to int.
	f.Add(appendUvarint(appendUvarint(nil, 1), 1<<63))
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeResponse(p)
		if err != nil {
			return
		}
		again, err := DecodeResponse(r.Encode())
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if again.FrameID != r.FrameID || !again.Keep.Equal(r.Keep) {
			t.Fatal("re-encoded response decodes to a different value")
		}
	})
}

func TestDecodeSiftBitflipsRejectedOrConsistent(t *testing.T) {
	// Flipping bytes of a valid encoding must either fail decoding or
	// produce a message that still satisfies the structural invariants
	// (strictly increasing, in-range slots).
	gen := rng.NewSplitMix64(9)
	valid := validSift().Encode()
	for trial := 0; trial < 300; trial++ {
		p := append([]byte(nil), valid...)
		p[gen.Intn(len(p))] ^= byte(1 << gen.Intn(8))
		dec, err := DecodeSift(p)
		if err != nil {
			continue
		}
		if err := siftInvariant(dec); err != nil {
			t.Fatalf("trial %d: decoder accepted inconsistent slots: %v", trial, err)
		}
	}
}

func TestDecodeSiftRejectsGiantClaims(t *testing.T) {
	// Regression for the allocation bomb the property test uncovered: a
	// tiny payload claiming billions of detections must be rejected
	// before allocation, not make()d.
	if _, err := DecodeSift(giantSiftClaim()); err == nil {
		t.Fatal("giant claim accepted")
	}
}

func appendUvarint(p []byte, v uint64) []byte {
	for v >= 0x80 {
		p = append(p, byte(v)|0x80)
		v >>= 7
	}
	return append(p, byte(v))
}
