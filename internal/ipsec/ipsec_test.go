package ipsec

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"qkd/internal/aesctr"
	"qkd/internal/rng"
)

func randKey(n int, seed uint64) []byte {
	k := make([]byte, n)
	rng.NewSplitMix64(seed).Bytes(k)
	return k
}

func TestAddrPrefixParsing(t *testing.T) {
	a, err := ParseAddr("192.1.99.35")
	if err != nil || a.String() != "192.1.99.35" {
		t.Fatalf("ParseAddr: %v %v", a, err)
	}
	if _, err := ParseAddr("300.1.1.1"); err == nil {
		t.Error("accepted out-of-range octet")
	}
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(MustAddr("10.200.3.4")) {
		t.Error("prefix should contain 10.200.3.4")
	}
	if p.Contains(MustAddr("11.0.0.1")) {
		t.Error("prefix should not contain 11.0.0.1")
	}
	all := MustPrefix("0.0.0.0/0")
	if !all.Contains(MustAddr("255.255.255.255")) {
		t.Error("/0 must contain everything")
	}
	host := MustPrefix("10.1.2.3/32")
	if !host.Contains(MustAddr("10.1.2.3")) || host.Contains(MustAddr("10.1.2.4")) {
		t.Error("/32 must match exactly one host")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Src: MustAddr("10.0.1.2"), Dst: MustAddr("10.0.2.3"),
		Proto: ProtoTCP, ID: 777, Payload: []byte("data"),
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Src != p.Src || q.Dst != p.Dst || q.Proto != p.Proto || q.ID != p.ID ||
		!bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	if _, err := UnmarshalPacket([]byte{1, 2, 3}); err == nil {
		t.Error("short packet accepted")
	}
	b[2] = 0xFF // corrupt length
	if _, err := UnmarshalPacket(b); err == nil {
		t.Error("bad length accepted")
	}

	// The codec owns the 16-bit length bound: the largest payload that
	// fits round-trips, one byte more fails to encode.
	p.Payload = bytes.Repeat([]byte{0x5a}, 65519)
	b, err = p.Marshal()
	if err != nil {
		t.Fatalf("65,519-byte payload: %v", err)
	}
	if q, err = UnmarshalPacket(b); err != nil || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("65,519-byte payload does not round-trip: %v", err)
	}
	p.Payload = append(p.Payload, 0x5a)
	if b, err := p.Marshal(); !errors.Is(err, ErrTooBig) || b != nil {
		t.Fatalf("65,520-byte payload: %d bytes, %v, want ErrTooBig", len(b), err)
	}
}

func TestSPDFirstMatchWins(t *testing.T) {
	specific := &Policy{Name: "specific", Action: Discard,
		Sel: Selector{Src: MustPrefix("10.0.1.0/24"), Dst: MustPrefix("10.0.2.5/32")}}
	general := &Policy{Name: "general", Action: Protect,
		Sel: Selector{Src: MustPrefix("10.0.1.0/24"), Dst: MustPrefix("10.0.2.0/24")}}
	spd := NewSPD(specific, general)
	p := &Packet{Src: MustAddr("10.0.1.9"), Dst: MustAddr("10.0.2.5")}
	if got := spd.Match(p); got != specific {
		t.Errorf("matched %v, want specific", got)
	}
	p.Dst = MustAddr("10.0.2.6")
	if got := spd.Match(p); got != general {
		t.Errorf("matched %v, want general", got)
	}
	p.Src = MustAddr("192.168.0.1")
	if got := spd.Match(p); got != nil {
		t.Errorf("matched %v, want nil", got)
	}
}

func TestSelectorProtoFilter(t *testing.T) {
	sel := Selector{Src: MustPrefix("0.0.0.0/0"), Dst: MustPrefix("0.0.0.0/0"), Proto: ProtoUDP}
	if sel.Matches(&Packet{Proto: ProtoTCP}) {
		t.Error("UDP selector matched TCP")
	}
	if !sel.Matches(&Packet{Proto: ProtoUDP}) {
		t.Error("UDP selector missed UDP")
	}
}

func sealOpenSuite(t *testing.T, suite CipherSuite) {
	t.Helper()
	key := randKey(suite.KeyBits()/8, 1)
	tx, err := NewSA(100, suite, key, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSA(100, suite, key, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{{}, []byte("x"), []byte("hello ipsec world"), make([]byte, 1500)} {
		blob, err := tx.Seal(payload)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		got, err := rx.Open(blob)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(payload))
		}
	}
}

func TestSealOpenAES(t *testing.T)  { sealOpenSuite(t, SuiteAES128CTR) }
func TestSealOpen3DES(t *testing.T) { sealOpenSuite(t, Suite3DESCBC) }
func TestSealOpenNull(t *testing.T) { sealOpenSuite(t, SuiteNull) }

func TestSealOpenOTP(t *testing.T) {
	pad := randKey(4096, 2)
	tx, err := NewOTPSA(200, pad, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewOTPSA(200, pad, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		payload := []byte("top secret payload")
		blob, err := tx.Seal(payload)
		if err != nil {
			t.Fatalf("Seal %d: %v", i, err)
		}
		got, err := rx.Open(blob)
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestOTPCiphertextNotPlaintext(t *testing.T) {
	pad := randKey(4096, 3)
	tx, _ := NewOTPSA(201, pad, Lifetime{})
	payload := bytes.Repeat([]byte{0xAA}, 64)
	blob, err := tx.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, payload[:16]) {
		t.Error("OTP ciphertext contains plaintext run")
	}
}

func TestOTPPadExhaustion(t *testing.T) {
	// 8 bytes WC key + 192 bytes of pad: each 16-byte payload costs
	// 16+8=24 pad bytes, so exactly 8 packets fit.
	pad := randKey(200, 4)
	tx, _ := NewOTPSA(202, pad, Lifetime{})
	sent := 0
	for i := 0; i < 100; i++ {
		_, err := tx.Seal(make([]byte, 16))
		if err != nil {
			if !errors.Is(err, ErrPadExhaust) && !errors.Is(err, ErrExpired) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		sent++
	}
	if sent != 8 {
		t.Errorf("sent %d packets, want 8", sent)
	}
	if tx.PadRemaining() >= 24 {
		t.Errorf("PadRemaining = %d after exhaustion", tx.PadRemaining())
	}
}

// TestWCHashTabMatchesReference pins the packet path's table-driven
// Wegman-Carter hash to the slice-based reference: for the zero key,
// the unit key and random keys, over random messages of every length
// from 0 to 299 bytes, so every tail length mod 8 is covered many
// times.
func TestWCHashTabMatchesReference(t *testing.T) {
	r := rng.NewSplitMix64(61)
	keys := []uint64{0, 1}
	for i := 0; i < 8; i++ {
		keys = append(keys, r.Uint64())
	}
	msg := make([]byte, 299)
	for _, key := range keys {
		tab := buildWCTable(key)
		for n := 0; n <= len(msg); n++ {
			r.Bytes(msg[:n])
			if got, want := wcHashTab(tab, msg[:n]), wcHash(key, msg[:n]); got != want {
				t.Fatalf("key %#x, %d-byte message: table form %#x, reference %#x", key, n, got, want)
			}
		}
	}
}

func TestTamperDetected(t *testing.T) {
	for _, suite := range []CipherSuite{SuiteAES128CTR, Suite3DESCBC, SuiteNull} {
		key := randKey(suite.KeyBits()/8, 5)
		tx, _ := NewSA(300, suite, key, Lifetime{})
		rx, _ := NewSA(300, suite, key, Lifetime{})
		blob, _ := tx.Seal([]byte("authentic"))
		blob[10] ^= 1
		if _, err := rx.Open(blob); !errors.Is(err, ErrIntegrity) {
			t.Errorf("%v: tamper err = %v, want ErrIntegrity", suite, err)
		}
	}
	// OTP tamper.
	pad := randKey(1024, 6)
	tx, _ := NewOTPSA(301, pad, Lifetime{})
	rx, _ := NewOTPSA(301, pad, Lifetime{})
	blob, _ := tx.Seal([]byte("authentic"))
	blob[18] ^= 1
	if _, err := rx.Open(blob); !errors.Is(err, ErrIntegrity) {
		t.Errorf("OTP tamper err = %v, want ErrIntegrity", err)
	}
}

func TestReplayRejected(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 7)
	tx, _ := NewSA(400, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(400, SuiteAES128CTR, key, Lifetime{})
	blob, _ := tx.Seal([]byte("once"))
	if _, err := rx.Open(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(blob); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v, want ErrReplay", err)
	}
}

func TestReplayWindowAllowsModestReorder(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 8)
	tx, _ := NewSA(401, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(401, SuiteAES128CTR, key, Lifetime{})
	var blobs [][]byte
	for i := 0; i < 10; i++ {
		b, _ := tx.Seal([]byte{byte(i)})
		blobs = append(blobs, b)
	}
	// Deliver out of order: 0,3,1,2,9,4.
	for _, i := range []int{0, 3, 1, 2, 9, 4} {
		if _, err := rx.Open(blobs[i]); err != nil {
			t.Fatalf("reordered packet %d rejected: %v", i, err)
		}
	}
	// Re-delivery of 3 must now fail.
	if _, err := rx.Open(blobs[3]); !errors.Is(err, ErrReplay) {
		t.Errorf("replayed packet 3: %v", err)
	}
}

func TestReplayWindowDropsAncient(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 9)
	tx, _ := NewSA(402, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(402, SuiteAES128CTR, key, Lifetime{})
	first, _ := tx.Seal([]byte("old"))
	for i := 0; i < 100; i++ {
		b, _ := tx.Seal([]byte("new"))
		if _, err := rx.Open(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rx.Open(first); !errors.Is(err, ErrReplay) {
		t.Errorf("ancient packet: %v, want ErrReplay", err)
	}
}

func TestLifetimeBytes(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 10)
	sa, _ := NewSA(500, SuiteAES128CTR, key, Lifetime{Bytes: 100})
	if _, err := sa.Seal(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Seal(make([]byte, 60)); err != nil {
		t.Fatal(err) // crosses the limit during this call; next fails
	}
	if !sa.Expired() {
		t.Error("SA not expired after byte lifetime")
	}
	if _, err := sa.Seal([]byte("x")); !errors.Is(err, ErrExpired) {
		t.Errorf("Seal on expired SA: %v", err)
	}
}

func TestLifetimeDuration(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 11)
	sa, _ := NewSA(501, SuiteAES128CTR, key, Lifetime{Duration: time.Minute})
	now := time.Unix(1000, 0)
	sa.SetClock(func() time.Time { return now })
	if sa.Expired() {
		t.Fatal("expired immediately")
	}
	now = now.Add(61 * time.Second)
	if !sa.Expired() {
		t.Error("not expired after lifetime elapsed")
	}
}

func TestNewSAValidation(t *testing.T) {
	if _, err := NewSA(1, SuiteAES128CTR, make([]byte, 5), Lifetime{}); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewSA(1, SuiteOTP, make([]byte, 8), Lifetime{}); err == nil {
		t.Error("NewSA accepted OTP suite")
	}
	if _, err := NewOTPSA(1, make([]byte, 10), Lifetime{}); err == nil {
		t.Error("tiny pad accepted")
	}
}

// buildGatewayPair returns two gateways with mirror policies protecting
// enclave A (10.1.0.0/16) <-> enclave B (10.2.0.0/16) traffic, with SAs
// installed both ways.
func buildGatewayPair(t *testing.T, suite CipherSuite) (*Gateway, *Gateway) {
	t.Helper()
	gwA := NewGateway(MustAddr("192.1.99.34"), NewSPD(
		&Policy{Name: "a-to-b", Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.35"),
			Sel:    Selector{Src: MustPrefix("10.1.0.0/16"), Dst: MustPrefix("10.2.0.0/16")}},
		&Policy{Name: "b-to-a", Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.35"),
			Sel:    Selector{Src: MustPrefix("10.2.0.0/16"), Dst: MustPrefix("10.1.0.0/16")}},
	))
	gwB := NewGateway(MustAddr("192.1.99.35"), NewSPD(
		&Policy{Name: "b-to-a", Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.34"),
			Sel:    Selector{Src: MustPrefix("10.2.0.0/16"), Dst: MustPrefix("10.1.0.0/16")}},
		&Policy{Name: "a-to-b", Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.34"),
			Sel:    Selector{Src: MustPrefix("10.1.0.0/16"), Dst: MustPrefix("10.2.0.0/16")}},
	))
	// Install SAs: one pair per direction.
	keyAB := randKey(suite.KeyBits()/8, 20)
	keyBA := randKey(suite.KeyBits()/8, 21)
	saOutAB, _ := NewSA(1000, suite, keyAB, Lifetime{})
	saInAB, _ := NewSA(1000, suite, keyAB, Lifetime{})
	saOutBA, _ := NewSA(2000, suite, keyBA, Lifetime{})
	saInBA, _ := NewSA(2000, suite, keyBA, Lifetime{})
	gwA.SAD.InstallOutbound("a-to-b", saOutAB)
	gwB.SAD.InstallInbound(saInAB)
	gwB.SAD.InstallOutbound("b-to-a", saOutBA)
	gwA.SAD.InstallInbound(saInBA)
	return gwA, gwB
}

func TestGatewayTunnelRoundTrip(t *testing.T) {
	gwA, gwB := buildGatewayPair(t, SuiteAES128CTR)
	inner := &Packet{
		Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, ID: 42, Payload: []byte("ping"),
	}
	outer, err := gwA.ProcessOutbound(inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Proto != ProtoESP {
		t.Fatalf("outer proto %d", outer.Proto)
	}
	if outer.Src != gwA.Local || outer.Dst != gwB.Local {
		t.Fatalf("tunnel endpoints %s -> %s", outer.Src, outer.Dst)
	}
	if bytes.Contains(outer.Payload, []byte("ping")) {
		t.Error("plaintext visible in tunnel packet")
	}
	got, err := gwB.ProcessInbound(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != inner.Src || got.Dst != inner.Dst || got.ID != 42 ||
		!bytes.Equal(got.Payload, inner.Payload) {
		t.Fatalf("decapsulated packet mismatch: %+v", got)
	}
}

func TestGatewayRejectsPacketTooBigForLengthField(t *testing.T) {
	// A payload one byte past the room in the 16-bit length field must
	// fail before sealing and spend nothing; the largest payload that
	// fits round-trips.
	for _, suite := range []CipherSuite{SuiteAES128CTR, SuiteOTP} {
		t.Run(suite.String(), func(t *testing.T) {
			gwA, gwB := buildGatewayPair(t, SuiteAES128CTR)
			if suite == SuiteOTP {
				pad := randKey(8+2*(headerLen+65519+otpTagLen), 22)
				out, _ := NewOTPSA(3000, pad, Lifetime{})
				in, _ := NewOTPSA(3000, pad, Lifetime{})
				gwA.SAD.InstallOutbound("a-to-b", out)
				gwB.SAD.InstallInbound(in)
			}
			sa := gwA.SAD.Outbound("a-to-b")
			padBefore := sa.PadRemaining()
			send := func(n int) (*Packet, error) {
				return gwA.ProcessOutbound(&Packet{
					Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
					Proto: ProtoPing, ID: 7, Payload: bytes.Repeat([]byte{0x5a}, n),
				})
			}
			if _, err := send(65520); !errors.Is(err, ErrTooBig) {
				t.Fatalf("65,520-byte payload: %v, want ErrTooBig", err)
			}
			if got := gwA.Stats().Sealed; got != 0 || sa.seq != 0 {
				t.Fatalf("Sealed = %d, seq = %d after the rejected packet", got, sa.seq)
			}
			if got := sa.PadRemaining(); got != padBefore {
				t.Fatalf("PadRemaining %d -> %d after the rejected packet", padBefore, got)
			}
			outer, err := send(65519)
			if err != nil {
				t.Fatalf("65,519-byte payload: %v", err)
			}
			got, err := gwB.ProcessInbound(outer)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if !bytes.Equal(got.Payload, bytes.Repeat([]byte{0x5a}, 65519)) {
				t.Fatalf("round trip returned %d bytes", len(got.Payload))
			}
		})
	}
}

func TestGatewayNoSATriggersCallback(t *testing.T) {
	gwA, _ := buildGatewayPair(t, SuiteAES128CTR)
	gwA.SAD.RemoveOutbound("a-to-b", gwA.SAD.Outbound("a-to-b"))
	var triggered *Policy
	gwA.OnMissingSA = func(p *Policy) { triggered = p }
	_, err := gwA.ProcessOutbound(&Packet{
		Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"), Proto: ProtoPing,
	})
	if !errors.Is(err, ErrNoSA) {
		t.Fatalf("err = %v, want ErrNoSA", err)
	}
	if triggered == nil || triggered.Name != "a-to-b" {
		t.Error("OnMissingSA not fired for the right policy")
	}
}

func TestGatewayDropsClearPacketForProtectedFlow(t *testing.T) {
	_, gwB := buildGatewayPair(t, SuiteAES128CTR)
	// Eve injects a plaintext packet claiming to be enclave traffic.
	forged := &Packet{
		Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, Payload: []byte("evil"),
	}
	if _, err := gwB.ProcessInbound(forged); !errors.Is(err, ErrDiscard) {
		t.Errorf("clear packet for protected flow: %v, want ErrDiscard", err)
	}
}

func TestGatewayBypassPolicy(t *testing.T) {
	gw := NewGateway(MustAddr("192.1.99.34"), NewSPD(
		&Policy{Name: "clear", Action: Bypass,
			Sel: Selector{Src: MustPrefix("0.0.0.0/0"), Dst: MustPrefix("0.0.0.0/0")}},
	))
	p := &Packet{Src: MustAddr("1.2.3.4"), Dst: MustAddr("5.6.7.8"), Proto: ProtoTCP}
	out, err := gw.ProcessOutbound(p)
	if err != nil || out != p {
		t.Fatalf("bypass failed: %v %v", out, err)
	}
	in, err := gw.ProcessInbound(p)
	if err != nil || in != p {
		t.Fatalf("inbound bypass failed: %v %v", in, err)
	}
}

func TestGatewayExpiredSARollsOver(t *testing.T) {
	gwA, _ := buildGatewayPair(t, SuiteAES128CTR)
	old := gwA.SAD.Outbound("a-to-b")
	// Replace with a byte-limited SA and exhaust it.
	key := randKey(SuiteAES128CTR.KeyBits()/8, 30)
	limited, _ := NewSA(3000, SuiteAES128CTR, key, Lifetime{Bytes: 10})
	gwA.SAD.InstallOutbound("a-to-b", limited)
	var rollover int
	gwA.OnMissingSA = func(*Policy) { rollover++ }
	pkt := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"), Proto: ProtoPing,
		Payload: make([]byte, 64)}
	if _, err := gwA.ProcessOutbound(pkt); err != nil {
		t.Fatal(err) // first packet crosses the limit (and fires a soft rekey)
	}
	if _, err := gwA.ProcessOutbound(pkt); !errors.Is(err, ErrNoSA) {
		t.Fatalf("expected ErrNoSA after expiry, got %v", err)
	}
	// Two triggers: the soft-expiry signal as the first packet crossed
	// the byte threshold, then the hard missing-SA trigger.
	if rollover != 2 {
		t.Errorf("rollover callbacks = %d, want 2 (soft + hard)", rollover)
	}
	if st := gwA.Stats(); st.SoftRekeys != 1 {
		t.Errorf("SoftRekeys = %d, want 1", st.SoftRekeys)
	}
	_ = old
}

// Property: Seal/Open round-trips arbitrary payloads over AES and OTP.
func TestPropertySealOpen(t *testing.T) {
	f := func(payload []byte, seed uint64) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		key := randKey(SuiteAES128CTR.KeyBits()/8, seed)
		tx, err1 := NewSA(1, SuiteAES128CTR, key, Lifetime{})
		rx, err2 := NewSA(1, SuiteAES128CTR, key, Lifetime{})
		if err1 != nil || err2 != nil {
			return false
		}
		blob, err := tx.Seal(payload)
		if err != nil {
			return false
		}
		got, err := rx.Open(blob)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- SA lifecycle: expiry on Open, supersession, seq wrap ------------

// pairWithClock builds a keyed tx/rx SA pair sharing an injectable
// clock.
func pairWithClock(t *testing.T, life Lifetime, now *time.Time) (*SA, *SA) {
	t.Helper()
	key := randKey(SuiteAES128CTR.KeyBits()/8, 40)
	tx, err := NewSA(600, SuiteAES128CTR, key, life)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSA(600, SuiteAES128CTR, key, life)
	if err != nil {
		t.Fatal(err)
	}
	clock := func() time.Time { return *now }
	tx.SetClock(clock)
	rx.SetClock(clock)
	return tx, rx
}

func TestOpenRejectsTimeExpiredSA(t *testing.T) {
	now := time.Unix(1000, 0)
	tx, rx := pairWithClock(t, Lifetime{Duration: time.Minute}, &now)
	blob, err := tx.Seal([]byte("in flight"))
	if err != nil {
		t.Fatal(err)
	}
	late, err := tx.Seal([]byte("also in flight"))
	if err != nil {
		t.Fatal(err)
	}
	// Inside the lifetime: opens.
	if _, err := rx.Open(blob); err != nil {
		t.Fatalf("Open inside lifetime: %v", err)
	}
	// Past the lifetime but inside grace: in-flight traffic drains.
	now = now.Add(time.Minute + DefaultGrace/2)
	if _, err := rx.Open(late); err != nil {
		t.Fatalf("Open inside grace: %v", err)
	}
	// Past lifetime + grace: the undead SA refuses.
	now = now.Add(DefaultGrace)
	if _, err := rx.Open(blob); !errors.Is(err, ErrExpired) {
		t.Fatalf("Open past grace: %v, want ErrExpired", err)
	}
}

func TestGatewayCountsInboundExpiry(t *testing.T) {
	gwA, gwB := buildGatewayPair(t, SuiteAES128CTR)
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	gwA.SAD.Outbound("a-to-b").SetClock(clock)
	rx := gwB.SAD.BySPI(1000)
	rx.SetClock(clock)
	rx.Life = Lifetime{Duration: time.Second}
	inner := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, ID: 1, Payload: []byte("late")}
	outer, err := gwA.ProcessOutbound(inner)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second + DefaultGrace + time.Second)
	if _, err := gwB.ProcessInbound(outer); !errors.Is(err, ErrExpired) {
		t.Fatalf("inbound on expired SA: %v, want ErrExpired", err)
	}
	if st := gwB.Stats(); st.Expired != 1 {
		t.Errorf("Stats.Expired = %d, want 1", st.Expired)
	}
}

func TestOpenByteLifetimeMirrorsSeal(t *testing.T) {
	// The byte bound is check-then-count on both sides, so every packet
	// the sender could seal, the receiver opens — and nothing after.
	tx, _ := NewSA(601, SuiteAES128CTR, randKey(SuiteAES128CTR.KeyBits()/8, 41), Lifetime{Bytes: 100})
	rx, _ := NewSA(601, SuiteAES128CTR, randKey(SuiteAES128CTR.KeyBits()/8, 41), Lifetime{Bytes: 100})
	var blobs [][]byte
	for {
		blob, err := tx.Seal(make([]byte, 40))
		if err != nil {
			if !errors.Is(err, ErrExpired) {
				t.Fatalf("Seal: %v", err)
			}
			break
		}
		blobs = append(blobs, blob)
	}
	if len(blobs) != 3 {
		t.Fatalf("sealed %d packets, want 3 (40+40+40 crosses 100)", len(blobs))
	}
	for i, blob := range blobs {
		if _, err := rx.Open(blob); err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
	}
	// A hypothetical fourth packet (same key, fresh SA to mint it) is
	// refused: the receive-side budget is spent.
	mint, _ := NewSA(601, SuiteAES128CTR, randKey(SuiteAES128CTR.KeyBits()/8, 41), Lifetime{})
	mint.seq = tx.seq
	extra, _ := mint.Seal(make([]byte, 40))
	if _, err := rx.Open(extra); !errors.Is(err, ErrExpired) {
		t.Fatalf("Open past byte budget: %v, want ErrExpired", err)
	}
}

func TestSealHardStopsBeforeSeqWrap(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 42)
	tx, _ := NewSA(602, SuiteAES128CTR, key, Lifetime{})
	tx.seq = ^uint32(0) - 2
	for i := 0; i < 2; i++ {
		blob, err := tx.Seal([]byte("near the edge"))
		if err != nil {
			t.Fatalf("Seal %d below the limit: %v", i, err)
		}
		if seq := uint32(blob[4])<<24 | uint32(blob[5])<<16 | uint32(blob[6])<<8 | uint32(blob[7]); seq == 0 {
			t.Fatal("sealed a packet with seq 0")
		}
	}
	// The next seal would wrap to 0; it must refuse with ErrExpired (the
	// rekey trigger), not emit the poison packet.
	if _, err := tx.Seal([]byte("wedge?")); !errors.Is(err, ErrExpired) {
		t.Fatalf("Seal at seq limit: %v, want ErrExpired", err)
	}
	if !tx.Expired() {
		t.Error("SA at the seq hard limit does not report Expired")
	}
}

func TestSeqSoftExpiryFiresRekeyBeforeHardStop(t *testing.T) {
	gwA, _ := buildGatewayPair(t, SuiteAES128CTR)
	sa := gwA.SAD.Outbound("a-to-b")
	sa.seq = seqSoftLimit - 2
	var rekeys int
	gwA.OnMissingSA = func(*Policy) { rekeys++ }
	pkt := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"), Proto: ProtoPing,
		Payload: []byte("flowing")}
	for i := 0; i < 4; i++ {
		if _, err := gwA.ProcessOutbound(pkt); err != nil {
			t.Fatalf("packet %d while soft-expiring: %v", i, err)
		}
	}
	if rekeys != 1 {
		t.Errorf("soft rekey fired %d times, want exactly once", rekeys)
	}
	if st := gwA.Stats(); st.SoftRekeys != 1 || st.Sealed != 4 {
		t.Errorf("stats = %+v, want SoftRekeys 1 and Sealed 4", st)
	}
}

// sealAt mints a blob with an exact sequence number.
func sealAt(t *testing.T, sa *SA, seq uint32, payload []byte) []byte {
	t.Helper()
	sa.seq = seq - 1
	blob, err := sa.Seal(payload)
	if err != nil {
		t.Fatalf("Seal at seq %d: %v", seq, err)
	}
	return blob
}

func TestReplayWindowEdges(t *testing.T) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 43)
	tx, _ := NewSA(603, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(603, SuiteAES128CTR, key, Lifetime{})

	// Advance the window to 1000.
	if _, err := rx.Open(sealAt(t, tx, 1000, []byte("head"))); err != nil {
		t.Fatal(err)
	}
	// seq == maxSeq-63: the last slot inside the 64-wide window.
	if _, err := rx.Open(sealAt(t, tx, 1000-63, []byte("edge"))); err != nil {
		t.Fatalf("in-window edge rejected: %v", err)
	}
	// One further back falls off the window.
	if _, err := rx.Open(sealAt(t, tx, 1000-64, []byte("gone"))); !errors.Is(err, ErrReplay) {
		t.Fatalf("seq maxSeq-64: %v, want ErrReplay", err)
	}
	// Replaying the edge slot is caught.
	if _, err := rx.Open(sealAt(t, tx, 1000-63, []byte("edge"))); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed edge: %v, want ErrReplay", err)
	}
}

func TestReplayWindowAtSeqCeiling(t *testing.T) {
	// The receiver window keeps working at the very top of sequence
	// space — the region the hard stop guarantees the sender never
	// leaves — and seq 0 (the wrap poison) stays rejected throughout.
	key := randKey(SuiteAES128CTR.KeyBits()/8, 44)
	tx, _ := NewSA(604, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(604, SuiteAES128CTR, key, Lifetime{})
	top := ^uint32(0)
	if _, err := rx.Open(sealAt(t, tx, top, []byte("ceiling"))); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(sealAt(t, tx, top-63, []byte("still in window"))); err != nil {
		t.Fatalf("window edge at ceiling: %v", err)
	}
	// A wrapped sender's seq-0 packet stays the replay sentinel even
	// with the window parked at the ceiling.
	if err := rx.replayCheckLocked(0); !errors.Is(err, ErrReplay) {
		t.Fatalf("seq 0 at ceiling: %v, want ErrReplay", err)
	}
}

func TestForgedSeqCannotPoisonWindow(t *testing.T) {
	// Integrity is checked before the replay window moves, so Eve
	// cannot slam the window forward with a forged huge seq.
	key := randKey(SuiteAES128CTR.KeyBits()/8, 45)
	tx, _ := NewSA(605, SuiteAES128CTR, key, Lifetime{})
	rx, _ := NewSA(605, SuiteAES128CTR, key, Lifetime{})
	if _, err := rx.Open(sealAt(t, tx, 5, []byte("real"))); err != nil {
		t.Fatal(err)
	}
	forged := sealAt(t, tx, 6, []byte("forged"))
	forged[4], forged[5], forged[6], forged[7] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := rx.Open(forged); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("forged seq: %v, want ErrIntegrity", err)
	}
	// The window did not move: nearby legitimate traffic still opens.
	if _, err := rx.Open(sealAt(t, tx, 6, []byte("real again"))); err != nil {
		t.Fatalf("legit packet after forgery attempt: %v", err)
	}
}

// --- SAD generations: rollover leak and graceful supersession --------

func TestInstallInboundForBoundsGenerations(t *testing.T) {
	d := NewSAD()
	now := time.Unix(3000, 0)
	clock := func() time.Time { return now }
	key := randKey(SuiteAES128CTR.KeyBits()/8, 46)
	var gens []*SA
	for i := 0; i < 10; i++ {
		sa, _ := NewSA(uint32(7000+i), SuiteAES128CTR, key, Lifetime{})
		sa.SetClock(clock)
		d.InstallInboundFor("b-to-a", Addr{}, sa)
		gens = append(gens, sa)
		if in, _ := d.Count(); in > 2 {
			t.Fatalf("after %d rollovers: %d inbound SAs, want <= 2 generations", i+1, in)
		}
	}
	// The predecessor is superseded, older generations are gone.
	if !gens[8].Superseded() {
		t.Error("predecessor not marked superseded")
	}
	if d.BySPI(7000) != nil || d.BySPI(7007) != nil {
		t.Error("ancient generations still installed")
	}
	if d.BySPI(7008) == nil || d.BySPI(7009) == nil {
		t.Error("live generations missing")
	}
	// Grace elapses: the sweep retires the superseded generation.
	now = now.Add(DefaultGrace + time.Second)
	d.Sweep()
	if in, _ := d.Count(); in != 1 {
		t.Errorf("after grace sweep: %d inbound SAs, want 1", in)
	}
	if d.BySPI(7008) != nil {
		t.Error("superseded generation survived its grace window")
	}
}

// TestInstallInboundForPeerChange moves a tunnel direction to another
// peer gateway mid-chain: each superseded generation must leave the
// bucket it was filed under, not the tunnel's current peer's bucket.
func TestInstallInboundForPeerChange(t *testing.T) {
	d := NewSAD()
	now := time.Unix(3000, 0)
	clock := func() time.Time { return now }
	key := randKey(SuiteAES128CTR.KeyBits()/8, 47)
	x, y := MustAddr("192.1.99.36"), MustAddr("192.1.99.37")
	var gens []*SA
	for i, peer := range []Addr{x, y, y} {
		sa, _ := NewSA(uint32(7100+i), SuiteAES128CTR, key, Lifetime{})
		sa.SetClock(clock)
		d.InstallInboundFor("p", peer, sa)
		gens = append(gens, sa)
	}
	if in, _ := d.Count(); in != 2 {
		t.Fatalf("after a peer change and a rollover: %d inbound SAs, want 2 generations", in)
	}
	if d.BySPIPeer(x, gens[0].SPI) != nil {
		t.Error("generation filed under the earlier peer was never removed")
	}
	now = now.Add(DefaultGrace + time.Second)
	d.Sweep()
	if in, _ := d.Count(); in != 1 {
		t.Errorf("after grace sweep: %d inbound SAs, want 1", in)
	}
	if d.BySPIPeer(y, gens[1].SPI) != nil || d.BySPIPeer(y, gens[2].SPI) != gens[2] {
		t.Error("grace sweep did not leave exactly the serving generation")
	}

	// A superseded generation still draining under the old peer retires
	// from the old peer's bucket too.
	sa, _ := NewSA(7200, SuiteAES128CTR, key, Lifetime{})
	sa.SetClock(clock)
	d.InstallInboundFor("p", x, sa)
	now = now.Add(DefaultGrace + time.Second)
	d.Sweep()
	if in, _ := d.Count(); in != 1 || d.BySPIPeer(y, gens[2].SPI) != nil || d.BySPIPeer(x, sa.SPI) != sa {
		t.Errorf("drained generation under the old peer not retired: %d inbound SAs", in)
	}
}

func TestSupersededSADrainsThenRefuses(t *testing.T) {
	now := time.Unix(4000, 0)
	tx, rx := pairWithClock(t, Lifetime{}, &now)
	inFlight, err := tx.Seal([]byte("sealed before rollover"))
	if err != nil {
		t.Fatal(err)
	}
	rx.Supersede(now.Add(DefaultGrace))
	// Within grace: in-flight traffic still decrypts.
	if _, err := rx.Open(inFlight); err != nil {
		t.Fatalf("Open during grace drain: %v", err)
	}
	// After grace: refused.
	late, _ := tx.Seal([]byte("too late"))
	now = now.Add(DefaultGrace + time.Millisecond)
	if _, err := rx.Open(late); !errors.Is(err, ErrExpired) {
		t.Fatalf("Open after grace: %v, want ErrExpired", err)
	}
	if !rx.Retired() {
		t.Error("superseded SA past grace does not report Retired")
	}
}

func BenchmarkSealAES1500(b *testing.B) {
	key := randKey(SuiteAES128CTR.KeyBits()/8, 1)
	sa, _ := NewSA(1, SuiteAES128CTR, key, Lifetime{})
	payload := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		if _, err := sa.Seal(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealOTP1500(b *testing.B) {
	newSA := func(spi uint32) *SA {
		pad := randKey(8+(1500+otpTagLen)*benchOTPPadPackets, 2)
		sa, _ := NewOTPSA(spi, pad, Lifetime{})
		return sa
	}
	sa := newSA(1)
	payload := make([]byte, 1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.Seal(payload); err != nil {
			if !errors.Is(err, ErrPadExhaust) {
				b.Fatal(err)
			}
			b.StopTimer()
			sa = newSA(uint32(2 + i))
			b.StartTimer()
			i--
		}
	}
}

// --- gateway dataplane benchmarks (bench.sh ipsec group) -------------

// benchOTPPadPackets sizes bench OTP pads: enough for this many
// 1400-byte packets per SA, refilled under StopTimer on exhaustion,
// so pad size never scales with b.N.
const benchOTPPadPackets = 16384

func benchOTPPad(seed uint64) []byte {
	return randKey(8+(headerLen+1400+otpTagLen)*benchOTPPadPackets, seed)
}

// benchInstallSAs installs a fresh unexpiring SA pair for tunnel i of
// the given suite (outbound on gwA, inbound on gwB).
func benchInstallSAs(gwA, gwB *Gateway, suite CipherSuite, i int, seed uint64) {
	var out, in *SA
	if suite == SuiteOTP {
		pad := benchOTPPad(seed)
		out, _ = NewOTPSA(uint32(1000+i), pad, Lifetime{})
		in, _ = NewOTPSA(uint32(1000+i), pad, Lifetime{})
	} else {
		key := randKey(suite.KeyBits()/8, seed)
		out, _ = NewSA(uint32(1000+i), suite, key, Lifetime{})
		in, _ = NewSA(uint32(1000+i), suite, key, Lifetime{})
	}
	gwA.SAD.InstallOutbound(fmt.Sprintf("t%d/a-to-b", i), out)
	gwB.SAD.InstallInboundFor(fmt.Sprintf("t%d/a-to-b", i), Addr{}, in)
}

// benchGateway builds a gateway pair carrying `tunnels` parallel
// policies (10.1.i.0/24 <-> 10.2.i.0/24) with unexpiring SAs
// installed. suites[i%len(suites)] is tunnel i's cipher suite, so OTP
// benchmarks get real OTP SAs instead of mutating a Null policy after
// the fact.
func benchGateway(tb testing.TB, tunnels int, suites ...CipherSuite) (*Gateway, *Gateway) {
	tb.Helper()
	var polsA, polsB []*Policy
	for i := 0; i < tunnels; i++ {
		suite := suites[i%len(suites)]
		ab := &Policy{Name: fmt.Sprintf("t%d/a-to-b", i), Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.35"),
			Sel: Selector{Src: MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
				Dst: MustPrefix(fmt.Sprintf("10.2.%d.0/24", i))}}
		ba := &Policy{Name: fmt.Sprintf("t%d/b-to-a", i), Action: Protect, Suite: suite,
			PeerGW: MustAddr("192.1.99.34"),
			Sel: Selector{Src: MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
				Dst: MustPrefix(fmt.Sprintf("10.1.%d.0/24", i))}}
		polsA = append(polsA, ab, ba)
		polsB = append(polsB, ba, ab)
	}
	gwA := NewGateway(MustAddr("192.1.99.34"), NewSPD(polsA...))
	gwB := NewGateway(MustAddr("192.1.99.35"), NewSPD(polsB...))
	for i := 0; i < tunnels; i++ {
		benchInstallSAs(gwA, gwB, suites[i%len(suites)], i, uint64(50+i))
	}
	return gwA, gwB
}

// BenchmarkGateway_SealAES is the outbound fast path: SPD match, SAD
// lookup, AES-CTR seal on the cached key schedule, atomic counters.
func BenchmarkGateway_SealAES(b *testing.B) {
	gwA, _ := benchGateway(b, 1, SuiteAES128CTR)
	pkt := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, Payload: make([]byte, 1400)}
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gwA.ProcessOutbound(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateway_OpenAES is the inbound fast path: sharded SAD SPI
// lookup, HMAC verify, decrypt, replay window.
func BenchmarkGateway_OpenAES(b *testing.B) {
	gwA, gwB := benchGateway(b, 1, SuiteAES128CTR)
	pkt := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, Payload: make([]byte, 1400)}
	b.SetBytes(1400)
	const chunk = 4096
	blobs := make([]*Packet, 0, chunk)
	done := 0
	b.ResetTimer()
	for done < b.N {
		n := b.N - done
		if n > chunk {
			n = chunk
		}
		b.StopTimer()
		blobs = blobs[:0]
		for i := 0; i < n; i++ {
			outer, err := gwA.ProcessOutbound(pkt)
			if err != nil {
				b.Fatal(err)
			}
			blobs = append(blobs, outer)
		}
		b.StartTimer()
		for _, outer := range blobs {
			if _, err := gwB.ProcessInbound(outer); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}

// BenchmarkGateway_SealOpenAES seals and opens one packet at a time
// through the gateways' batch-of-one path, the way vpn.Send drives
// them, at payloads of 64, 176, 512 and 1400 B (80, 192, 528 and
// 1416 B inner packets): rekey-storm's packet, the DimDim trace's
// small and middle sizes, and a full-size one. aesctr's
// BenchmarkXORKeyStream times the keystream alone at the same inner
// sizes.
func BenchmarkGateway_SealOpenAES(b *testing.B) {
	for _, size := range []int{64, 176, 512, 1400} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			gwA, gwB := benchGateway(b, 1, SuiteAES128CTR)
			pkt := []*Packet{{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
				Proto: ProtoPing, Payload: make([]byte, size)}}
			out, in := NewBatch(), NewBatch()
			defer out.Release()
			defer in.Release()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sealed := gwA.ProcessOutboundBatch(out, pkt)
				if sealed[0].Err != nil {
					b.Fatal(sealed[0].Err)
				}
				if r := gwB.ProcessInboundBatch(in, []*Packet{sealed[0].Pkt}); r[0].Err != nil {
					b.Fatal(r[0].Err)
				}
			}
		})
	}
}

// BenchmarkGateway_SealOTP is the one-time-pad outbound path: pad XOR
// plus the Wegman-Carter tag over the table-driven GF(2^64) hash. The
// SA's pad covers benchOTPPadPackets packets; on exhaustion a fresh SA
// is installed off the clock.
func BenchmarkGateway_SealOTP(b *testing.B) {
	gwA, gwB := benchGateway(b, 1, SuiteOTP)
	inner := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, Payload: make([]byte, 1400)}
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gwA.ProcessOutbound(inner); err != nil {
			b.StopTimer()
			benchInstallSAs(gwA, gwB, SuiteOTP, 0, uint64(100+i))
			b.StartTimer()
			i--
		}
	}
}

// BenchmarkGateway_SealOTPBatch is the same OTP outbound path through
// ProcessOutboundBatch: one SA lock and one arena for a 64-packet
// burst.
func BenchmarkGateway_SealOTPBatch(b *testing.B) {
	gwA, gwB := benchGateway(b, 1, SuiteOTP)
	const burst = 64
	pkts := make([]*Packet, burst)
	for i := range pkts {
		pkts[i] = &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
			Proto: ProtoPing, Payload: make([]byte, 1400)}
	}
	bat := NewBatch()
	defer bat.Release()
	b.SetBytes(1400 * burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gwA.ProcessOutboundBatch(bat, pkts)
		if res[len(res)-1].Err != nil {
			b.StopTimer()
			benchInstallSAs(gwA, gwB, SuiteOTP, 0, uint64(100+i))
			b.StartTimer()
			i--
		}
	}
}

// BenchmarkGateway_SealAESBatch seals 64-packet bursts through one
// tunnel via ProcessOutboundBatch.
func BenchmarkGateway_SealAESBatch(b *testing.B) {
	gwA, _ := benchGateway(b, 1, SuiteAES128CTR)
	const burst = 64
	pkts := make([]*Packet, burst)
	for i := range pkts {
		pkts[i] = &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
			Proto: ProtoPing, Payload: make([]byte, 1400)}
	}
	bat := NewBatch()
	defer bat.Release()
	b.SetBytes(1400 * burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := gwA.ProcessOutboundBatch(bat, pkts)
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkGateway_OpenAESBatch opens 64-packet bursts through
// ProcessInboundBatch (one SAD lookup + SA lock per burst, payloads
// aliasing the batch arena).
func BenchmarkGateway_OpenAESBatch(b *testing.B) {
	gwA, gwB := benchGateway(b, 1, SuiteAES128CTR)
	pkt := &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
		Proto: ProtoPing, Payload: make([]byte, 1400)}
	const burst = 64
	b.SetBytes(1400 * burst)
	bat := NewBatch()
	defer bat.Release()
	blobs := make([]*Packet, 0, burst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		blobs = blobs[:0]
		for j := 0; j < burst; j++ {
			outer, err := gwA.ProcessOutbound(pkt)
			if err != nil {
				b.Fatal(err)
			}
			blobs = append(blobs, outer)
		}
		b.StartTimer()
		res := gwB.ProcessInboundBatch(bat, blobs)
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkGateway_Parallel drives 8 tunnels from parallel goroutines —
// the concurrent multi-tunnel dataplane. With the sharded SAD and
// atomic counters, flows contend only on their own SA's mutex.
func BenchmarkGateway_Parallel(b *testing.B) {
	const tunnels = 8
	gwA, _ := benchGateway(b, tunnels, SuiteAES128CTR)
	var next atomic.Uint64
	b.SetBytes(1400)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) % tunnels
		pkt := &Packet{Src: MustAddr(fmt.Sprintf("10.1.%d.5", i)),
			Dst:   MustAddr(fmt.Sprintf("10.2.%d.9", i)),
			Proto: ProtoPing, Payload: make([]byte, 1400)}
		for pb.Next() {
			if _, err := gwA.ProcessOutbound(pkt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGateway_ParallelBatch is the 8-tunnel parallel dataplane
// driven in 64-packet bursts through ProcessOutboundBatch — the
// amortized counterpart of BenchmarkGateway_Parallel.
func BenchmarkGateway_ParallelBatch(b *testing.B) {
	const tunnels = 8
	const burst = 64
	gwA, _ := benchGateway(b, tunnels, SuiteAES128CTR)
	var next atomic.Uint64
	b.SetBytes(1400)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) % tunnels
		pkts := make([]*Packet, burst)
		for j := range pkts {
			pkts[j] = &Packet{Src: MustAddr(fmt.Sprintf("10.1.%d.5", i)),
				Dst:   MustAddr(fmt.Sprintf("10.2.%d.9", i)),
				Proto: ProtoPing, Payload: make([]byte, 1400)}
		}
		bat := NewBatch()
		defer bat.Release()
		k := burst
		for pb.Next() {
			if k == burst {
				res := gwA.ProcessOutboundBatch(bat, pkts)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				k = 0
			}
			k++
		}
	})
}

// burstAllocs measures the batched dataplane's allocations per
// 64-packet burst of payload-byte packets through one tunnel of the
// given suite: sealed by ProcessOutboundBatch and opened by
// ProcessInboundBatch, each on a warm Batch. The Batches are taken
// from their pool before measuring, because sync.Pool drops about a
// quarter of its Puts under the race detector and CI runs these pins
// with -race.
func burstAllocs(t *testing.T, suite CipherSuite, payload int) (seal, open float64) {
	t.Helper()
	const burst, runs, warm = 64, 20, 4
	gwA, gwB := benchGateway(t, 1, suite)
	pkts := make([]*Packet, burst)
	for i := range pkts {
		pkts[i] = &Packet{Src: MustAddr("10.1.0.5"), Dst: MustAddr("10.2.0.9"),
			Proto: ProtoPing, Payload: make([]byte, payload)}
	}
	// One sealed burst per open: AllocsPerRun calls its function
	// runs+1 times, after warm calls here.
	var sealed [][]*Packet
	for r := 0; r < warm+runs+1; r++ {
		bs := make([]*Packet, burst)
		for i, p := range pkts {
			var err error
			if bs[i], err = gwA.ProcessOutbound(p); err != nil {
				t.Fatal(err)
			}
		}
		sealed = append(sealed, bs)
	}
	out, in := NewBatch(), NewBatch()
	defer out.Release()
	defer in.Release()
	for i := 0; i < warm; i++ {
		gwA.ProcessOutboundBatch(out, pkts)
		gwB.ProcessInboundBatch(in, sealed[i])
	}
	seal = testing.AllocsPerRun(runs, func() {
		if res := gwA.ProcessOutboundBatch(out, pkts); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	next := warm
	open = testing.AllocsPerRun(runs, func() {
		res := gwB.ProcessInboundBatch(in, sealed[next])
		next++
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	return seal, open
}

// TestBatchSealAllocs pins the batched outbound path's allocation
// counts. Once the batch arena is warm, a 64-packet OTP burst is
// zero-alloc (pad XOR and the table-driven tag touch no heap), and so
// is an AES burst at any packet size, whose CTR keystream comes from
// the round keys held in the SA. The AES bounds skip where CPUID lacks
// AES-NI: there the keystream is crypto/cipher's, which allocates its
// stream for every packet.
func TestBatchSealAllocs(t *testing.T) {
	const burst = 64
	if seal, _ := burstAllocs(t, SuiteOTP, 1400); seal > 4 {
		t.Errorf("batched OTP seal: %.1f allocs per %d-packet burst, want <= 4", seal, burst)
	}
	if !aesctr.AESNI() {
		t.Skip("CPU lacks AES-NI")
	}
	for _, n := range []int{64, 1400} {
		if seal, _ := burstAllocs(t, SuiteAES128CTR, n); seal > 0 {
			t.Errorf("batched AES seal, %d B: %.1f allocs per %d-packet burst, want 0", n, seal, burst)
		}
	}
}

// TestBatchOpenAllocs is TestBatchSealAllocs's inbound twin, for
// ProcessInboundBatch.
func TestBatchOpenAllocs(t *testing.T) {
	const burst = 64
	if _, open := burstAllocs(t, SuiteOTP, 1400); open > 0 {
		t.Errorf("batched OTP open: %.1f allocs per %d-packet burst, want 0", open, burst)
	}
	if !aesctr.AESNI() {
		t.Skip("CPU lacks AES-NI")
	}
	for _, n := range []int{64, 1400} {
		if _, open := burstAllocs(t, SuiteAES128CTR, n); open > 0 {
			t.Errorf("batched AES open, %d B: %.1f allocs per %d-packet burst, want 0", n, open, burst)
		}
	}
}
