package auth

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"qkd/internal/bitarray"
	"qkd/internal/channel"
	"qkd/internal/gf2"
	"qkd/internal/keypool"
	"qkd/internal/rng"
)

// mirroredPools returns two reservoirs with identical contents, as the
// two ends of a QKD link would hold after prepositioning.
func mirroredPools(seed uint64, bits int) (*keypool.Reservoir, *keypool.Reservoir) {
	material := rng.NewSplitMix64(seed).Bits(bits)
	a := keypool.New()
	b := keypool.New()
	a.Deposit(material)
	b.Deposit(material.Clone())
	return a, b
}

func TestTagVerifyRoundTrip(t *testing.T) {
	pa, pb := mirroredPools(1, 4096)
	sender, err := NewMAC(pa)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := NewMAC(pb)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{nil, {}, []byte("x"), []byte("hello world"), make([]byte, 1000)}
	for _, msg := range msgs {
		tag, err := sender.Tag(msg)
		if err != nil {
			t.Fatalf("Tag(%q): %v", msg, err)
		}
		if err := receiver.Verify(msg, tag); err != nil {
			t.Fatalf("Verify(%q): %v", msg, err)
		}
	}
}

// TestTagPinned pins the tag bytes: the SHA-256 of the tags one MAC
// computes over a fixed pool for messages of 0 to 40 bytes and one of
// 1 KiB, so the hashed message ends at every length mod 8. A
// Tag/Verify round trip cannot catch a hash that both ends compute
// wrong the same way; this digest can.
func TestTagPinned(t *testing.T) {
	const want = "ea109d9bab3ce8ea86a453ca0401d65e570f75da93e6ff323054de3d31596875"
	pool, _ := mirroredPools(16, 64+42*64)
	m, err := NewMAC(pool)
	if err != nil {
		t.Fatal(err)
	}
	msg := rng.NewSplitMix64(17).Bits(8 * 1024).Bytes()
	var lengths []int
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1024)
	h := sha256.New()
	for _, n := range lengths {
		tag, err := m.Tag(msg[:n])
		if err != nil {
			t.Fatalf("%d B: Tag: %v", n, err)
		}
		h.Write(tag[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("tag digest %s, want %s", got, want)
	}
}

func TestTamperedMessageRejected(t *testing.T) {
	pa, pb := mirroredPools(2, 4096)
	sender, _ := NewMAC(pa)
	receiver, _ := NewMAC(pb)
	msg := []byte("transfer 100 to account 7")
	tag, err := sender.Tag(msg)
	if err != nil {
		t.Fatal(err)
	}
	forged := []byte("transfer 999 to account 7")
	if err := receiver.Verify(forged, tag); !errors.Is(err, ErrForged) {
		t.Errorf("forged message: err = %v, want ErrForged", err)
	}
}

func TestTamperedTagRejected(t *testing.T) {
	pa, pb := mirroredPools(3, 4096)
	sender, _ := NewMAC(pa)
	receiver, _ := NewMAC(pb)
	msg := []byte("hello")
	tag, _ := sender.Tag(msg)
	tag[0] ^= 1
	if err := receiver.Verify(msg, tag); !errors.Is(err, ErrForged) {
		t.Errorf("bad tag: err = %v, want ErrForged", err)
	}
}

func TestLengthExtensionDistinct(t *testing.T) {
	// Messages that differ only by trailing zero bytes must have
	// distinct tags (the length block guarantees it).
	pa, pb := mirroredPools(4, 4096)
	sender, _ := NewMAC(pa)
	receiver, _ := NewMAC(pb)
	tag, _ := sender.Tag([]byte{1, 2, 3})
	if err := receiver.Verify([]byte{1, 2, 3, 0}, tag); !errors.Is(err, ErrForged) {
		t.Errorf("zero-extended message accepted: %v", err)
	}
}

func TestPadConsumption(t *testing.T) {
	pa, _ := mirroredPools(5, 64+3*64)
	m, err := NewMAC(pa)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Tag([]byte("msg")); err != nil {
			t.Fatalf("tag %d: %v", i, err)
		}
	}
	// Pool is now dry: the 4th tag must fail — this is the DoS surface.
	if _, err := m.Tag([]byte("msg")); err == nil {
		t.Fatal("tag succeeded on empty pool")
	}
	if pa.Available() != 0 {
		t.Errorf("pool has %d bits left", pa.Available())
	}
}

func TestReplenishmentRestoresService(t *testing.T) {
	pa, _ := mirroredPools(6, 64+64)
	m, _ := NewMAC(pa)
	m.Tag([]byte("first"))
	if _, err := m.Tag([]byte("second")); err == nil {
		t.Fatal("expected exhaustion")
	}
	// Replenish from "freshly distilled" bits.
	pa.Deposit(rng.NewSplitMix64(7).Bits(640))
	if _, err := m.Tag([]byte("second")); err != nil {
		t.Fatalf("tag after replenish: %v", err)
	}
}

func TestPadNeverReused(t *testing.T) {
	// Identical messages must produce different tags (fresh pad each).
	pa, _ := mirroredPools(8, 4096)
	m, _ := NewMAC(pa)
	t1, _ := m.Tag([]byte("same"))
	t2, _ := m.Tag([]byte("same"))
	if t1 == t2 {
		t.Error("two tags of the same message are identical — pad reuse")
	}
}

func TestDesyncCostsOnePad(t *testing.T) {
	// A forged message consumes the receiver's pad, but afterwards the
	// streams stay aligned for genuine traffic.
	pa, pb := mirroredPools(9, 4096)
	sender, _ := NewMAC(pa)
	receiver, _ := NewMAC(pb)

	// Eve injects a forgery; receiver burns one pad rejecting it...
	if err := receiver.Verify([]byte("evil"), [8]byte{1}); !errors.Is(err, ErrForged) {
		t.Fatalf("forgery: %v", err)
	}
	// ...which desynchronizes the next genuine message (sender used pad
	// #1, receiver pad #2) — demonstrating Eve's cheap DoS on the pad
	// stream. The layers above must resynchronize; here we just assert
	// the mismatch is detected rather than silently accepted.
	tag, _ := sender.Tag([]byte("real"))
	if err := receiver.Verify([]byte("real"), tag); !errors.Is(err, ErrForged) {
		t.Fatalf("desynced verify: %v, want ErrForged", err)
	}
}

func TestWrapConnRoundTrip(t *testing.T) {
	raw1, raw2 := channel.MemPair(8)
	poolAB1, poolAB2 := mirroredPools(10, 8192)
	poolBA1, poolBA2 := mirroredPools(11, 8192)
	alice, err := Wrap(raw1, poolAB1, poolBA1)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := Wrap(raw2, poolBA2, poolAB2)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Send(42, []byte("sift please")); err != nil {
		t.Fatal(err)
	}
	m, err := bob.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != 42 || string(m.Payload) != "sift please" {
		t.Fatalf("got %d %q", m.Type, m.Payload)
	}
	// Reverse direction.
	if err := bob.Send(43, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	m, err = alice.Recv()
	if err != nil || m.Type != 43 || string(m.Payload) != "ack" {
		t.Fatalf("reverse: %v %v", m, err)
	}
}

func TestWrapConnDetectsMITM(t *testing.T) {
	// Eve rewrites payloads in flight; the authenticated wrapper must
	// reject every altered message.
	inner1, inner2 := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if dir == channel.AliceToBob && len(m.Payload) > 8 {
			m.Payload[0] ^= 0xFF
		}
		return m, false
	})
	poolAB1, poolAB2 := mirroredPools(12, 8192)
	poolBA1, poolBA2 := mirroredPools(13, 8192)
	alice, _ := Wrap(inner1, poolAB1, poolBA1)
	bob, _ := Wrap(inner2, poolBA2, poolAB2)

	if err := alice.Send(1, []byte("authentic data")); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Recv(); !errors.Is(err, ErrForged) {
		t.Fatalf("MITM rewrite: err = %v, want ErrForged", err)
	}
	if bob.Forgeries != 1 {
		t.Errorf("Forgeries = %d", bob.Forgeries)
	}
}

// TestWrapConnSurvivesTruncation: Eve cuts Alice's first message to 3
// bytes, too short to carry a tag. Bob rejects it, but still spends the
// pad Alice spent on it, so the messages after it verify.
func TestWrapConnSurvivesTruncation(t *testing.T) {
	cut := false
	inner1, inner2 := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if dir == channel.AliceToBob && !cut {
			cut = true
			m.Payload = m.Payload[:3]
		}
		return m, false
	})
	poolAB1, poolAB2 := mirroredPools(19, 8192)
	poolBA1, poolBA2 := mirroredPools(20, 8192)
	alice, _ := Wrap(inner1, poolAB1, poolBA1)
	bob, _ := Wrap(inner2, poolBA2, poolAB2)

	if err := alice.Send(1, []byte("cut short")); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Recv(); !errors.Is(err, ErrForged) {
		t.Fatalf("truncated message: err = %v, want ErrForged", err)
	}
	if bob.Forgeries != 1 {
		t.Errorf("Forgeries = %d, want 1", bob.Forgeries)
	}
	for i := 0; i < 3; i++ {
		if err := alice.Send(2, []byte("after the cut")); err != nil {
			t.Fatal(err)
		}
		m, err := bob.Recv()
		if err != nil {
			t.Fatalf("message %d after the cut: %v", i+1, err)
		}
		if string(m.Payload) != "after the cut" {
			t.Fatalf("message %d after the cut: got %q", i+1, m.Payload)
		}
	}
}

func TestWrapConnDetectsTypeRewrite(t *testing.T) {
	inner1, inner2 := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if dir == channel.AliceToBob {
			m.Type = 99 // retype the message, leave payload alone
		}
		return m, false
	})
	poolAB1, poolAB2 := mirroredPools(14, 8192)
	poolBA1, poolBA2 := mirroredPools(15, 8192)
	alice, _ := Wrap(inner1, poolAB1, poolBA1)
	bob, _ := Wrap(inner2, poolBA2, poolAB2)
	alice.Send(1, []byte("payload"))
	if _, err := bob.Recv(); !errors.Is(err, ErrForged) {
		t.Fatalf("type rewrite: err = %v, want ErrForged", err)
	}
}

func TestWrapRequiresKeyMaterial(t *testing.T) {
	raw1, _ := channel.MemPair(1)
	empty := keypool.New()
	if _, err := Wrap(raw1, empty, empty); err == nil {
		t.Error("Wrap succeeded with empty pools")
	}
}

func TestHashDependsOnKey(t *testing.T) {
	p1 := keypool.New()
	p1.Deposit(bitarray.FromBools(make([]bool, 64))) // key = 0... all zero key!
	// A zero hash key maps every message to 0 — NewMAC must still work
	// (universality holds over random keys; a zero draw is 2^-64), but
	// distinct keys must give distinct hashes in general:
	if _, err := NewMAC(p1); err != nil {
		t.Fatalf("NewMAC with a zero key: %v", err)
	}
	m1 := &MAC{hash: gf2.NewPolyHash(0x1234)}
	m2 := &MAC{hash: gf2.NewPolyHash(0x5678)}
	msg := []byte("some message")
	if m1.hash.Sum(msg) == m2.hash.Sum(msg) {
		t.Error("different keys, same hash")
	}
}

// TestTagAllocs pins that Tag allocates only its pad withdrawal: the
// hash allocates nothing, whatever the message length.
func TestTagAllocs(t *testing.T) {
	const runs = 50
	pool, _ := mirroredPools(18, 64+3*(runs+1)*64)
	m, err := NewMAC(pool)
	if err != nil {
		t.Fatal(err)
	}
	pad := testing.AllocsPerRun(runs, func() {
		if _, err := pool.TryConsume(64); err != nil {
			t.Fatal(err)
		}
	})
	for _, n := range []int{16, 1024} {
		msg := make([]byte, n)
		got := testing.AllocsPerRun(runs, func() {
			if _, err := m.Tag(msg); err != nil {
				t.Fatal(err)
			}
		})
		if got != pad {
			t.Errorf("Tag of %d bytes: %.1f allocations, want the pad withdrawal's %.1f", n, got, pad)
		}
	}
}

// Property: Verify accepts exactly what Tag produced, for arbitrary
// messages, and mirrored MACs stay in sync over many messages.
func TestPropertyTagVerifySync(t *testing.T) {
	f := func(seed uint64, msgs [][]byte) bool {
		if len(msgs) > 20 {
			msgs = msgs[:20]
		}
		need := 64 + len(msgs)*64 + 64
		pa, pb := mirroredPools(seed, need)
		s, err1 := NewMAC(pa)
		r, err2 := NewMAC(pb)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, msg := range msgs {
			tag, err := s.Tag(msg)
			if err != nil {
				return false
			}
			if err := r.Verify(msg, tag); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTag1KB(b *testing.B) {
	pool := keypool.New()
	pool.Deposit(rng.NewSplitMix64(1).Bits(64 + 64*(b.N+1)))
	m, err := NewMAC(pool)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tag(msg); err != nil {
			b.Fatal(err)
		}
	}
}
