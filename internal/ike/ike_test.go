package ike

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qkd/internal/channel"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/rng"
)

// harness builds two gateways joined by policies and two IKE daemons
// over an in-memory control channel, keyed from mirrored key delivery
// services with "ike/qblocks" and "ike/otp" streams, as vpn keys them.
type harness struct {
	gwA, gwB     *ipsec.Gateway
	dA, dB       *Daemon
	kA, kB       *kms.Service
	logA, logB   bytes.Buffer
	polAB, polBA *ipsec.Policy
}

// deposit ingests the same bits into both services, as distillation
// would.
func (h *harness) deposit(bits int, seed uint64) {
	material := rng.NewSplitMix64(seed).Bits(bits)
	h.kA.Ingest(material.Clone())
	h.kB.Ingest(material)
}

// checkLedgers fails the test unless both services' ledger cursors are
// equal: both ends spent the same key.
func (h *harness) checkLedgers(t *testing.T) {
	t.Helper()
	if a, b := h.kA.Cursor(), h.kB.Cursor(); a != b {
		t.Errorf("ledger cursors differ: A %d, B %d", a, b)
	}
}

func newHarness(t *testing.T, suite ipsec.CipherSuite, life ipsec.Lifetime, cfg Config, keyBits int) *harness {
	t.Helper()
	connA, connB := channel.MemPair(64)
	return newHarnessConns(t, suite, life, cfg, cfg, keyBits, connA, connB)
}

// newHarnessAsym builds a harness whose two daemons use different
// configurations (e.g. distinct Phase2Timeouts).
func newHarnessAsym(t *testing.T, suite ipsec.CipherSuite, life ipsec.Lifetime, cfgA, cfgB Config, keyBits int) *harness {
	t.Helper()
	connA, connB := channel.MemPair(64)
	return newHarnessConns(t, suite, life, cfgA, cfgB, keyBits, connA, connB)
}

func newHarnessConns(t *testing.T, suite ipsec.CipherSuite, life ipsec.Lifetime, cfgA, cfgB Config, keyBits int, connA, connB channel.Conn) *harness {
	t.Helper()
	h := &harness{}
	h.polAB = &ipsec.Policy{Name: "a-to-b", Action: ipsec.Protect, Suite: suite,
		PeerGW: ipsec.MustAddr("192.1.99.35"), Life: life, OTPBits: 4096,
		Sel: ipsec.Selector{Src: ipsec.MustPrefix("10.1.0.0/16"), Dst: ipsec.MustPrefix("10.2.0.0/16")}}
	h.polBA = &ipsec.Policy{Name: "b-to-a", Action: ipsec.Protect, Suite: suite,
		PeerGW: ipsec.MustAddr("192.1.99.34"), Life: life, OTPBits: 4096,
		Sel: ipsec.Selector{Src: ipsec.MustPrefix("10.2.0.0/16"), Dst: ipsec.MustPrefix("10.1.0.0/16")}}

	h.gwA = ipsec.NewGateway(ipsec.MustAddr("192.1.99.34"), ipsec.NewSPD(h.polAB, h.polBA))
	h.gwB = ipsec.NewGateway(ipsec.MustAddr("192.1.99.35"), ipsec.NewSPD(h.polBA, h.polAB))

	// Mirrored key delivery services, as the QKD layer would fill.
	h.kA, h.kB = kms.New(kms.Config{}), kms.New(kms.Config{})
	t.Cleanup(func() { h.kA.Close(); h.kB.Close() })
	qbA, otpA := keyStreams(t, h.kA)
	qbB, otpB := keyStreams(t, h.kB)
	if keyBits > 0 {
		h.deposit(keyBits, 99)
	}

	psk := []byte("prepositioned-secret")
	h.dA = NewDaemon(Initiator, connA, h.gwA, qbA, otpA, psk, cfgA, &h.logA)
	h.dB = NewDaemon(Responder, connB, h.gwB, qbB, otpB, psk, cfgB, &h.logB)

	errCh := make(chan error, 1)
	go func() { errCh <- h.dB.Start() }()
	if err := h.dA.Start(); err != nil {
		t.Fatalf("initiator start: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("responder start: %v", err)
	}
	t.Cleanup(func() { h.dA.Stop(); h.dB.Stop() })
	return h
}

// keyStreams registers vpn's two quick-mode streams on svc.
func keyStreams(t testing.TB, svc *kms.Service) (qblocks, otp *kms.Stream) {
	t.Helper()
	qblocks, err := svc.NewStream("ike/qblocks", QblockBits, kms.ClassRekey)
	if err != nil {
		t.Fatal(err)
	}
	if otp, err = svc.NewStream("ike/otp", 1024, kms.ClassOTP); err != nil {
		t.Fatal(err)
	}
	return qblocks, otp
}

// ping pushes one packet A-enclave -> B-enclave through both gateways.
func (h *harness) ping(id uint32) error {
	inner := &ipsec.Packet{
		Src: ipsec.MustAddr("10.1.0.5"), Dst: ipsec.MustAddr("10.2.0.9"),
		Proto: ipsec.ProtoPing, ID: id, Payload: []byte("ping"),
	}
	outer, err := h.gwA.ProcessOutbound(inner)
	if err != nil {
		return err
	}
	got, err := h.gwB.ProcessInbound(outer)
	if err != nil {
		return err
	}
	if got.ID != id {
		return errors.New("packet corrupted in tunnel")
	}
	return nil
}

// pong pushes one packet in the reverse direction.
func (h *harness) pong(id uint32) error {
	inner := &ipsec.Packet{
		Src: ipsec.MustAddr("10.2.0.9"), Dst: ipsec.MustAddr("10.1.0.5"),
		Proto: ipsec.ProtoPing, ID: id, Payload: []byte("pong"),
	}
	outer, err := h.gwB.ProcessOutbound(inner)
	if err != nil {
		return err
	}
	_, err = h.gwA.ProcessInbound(outer)
	return err
}

func TestNegotiateEstablishesBidirectionalTunnel(t *testing.T) {
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 65536)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("Negotiate: %v", err)
	}
	for i := uint32(1); i <= 5; i++ {
		if err := h.ping(i); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		if err := h.pong(i); err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
	}
	// Both ends spent the same ledger range.
	h.checkLedgers(t)
	sa := h.dA.Stats()
	sb := h.dB.Stats()
	if sa.SAsEstablished != 2 || sb.SAsEstablished != 2 {
		t.Errorf("SAsEstablished: %d, %d", sa.SAsEstablished, sb.SAsEstablished)
	}
	if sa.QbitsConsumed != QblockBits {
		t.Errorf("initiator consumed %d qbits, want %d", sa.QbitsConsumed, QblockBits)
	}
}

func TestNegotiateOTPTunnel(t *testing.T) {
	h := newHarness(t, ipsec.SuiteOTP, ipsec.Lifetime{}, Config{}, 65536)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("Negotiate: %v", err)
	}
	for i := uint32(1); i <= 10; i++ {
		if err := h.ping(i); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	// OTP consumed 2x4096 bits from each pool.
	st := h.dA.Stats()
	if st.QbitsConsumed != 2*4096 {
		t.Errorf("QbitsConsumed = %d, want 8192", st.QbitsConsumed)
	}
}

func TestRacoonStyleLog(t *testing.T) {
	// The Fig. 12 transcript: phase 2 begin, QPFS, Qblocks reply,
	// KEYMAT using QBITS, IPsec-SA established x2.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 65536)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	// Give the responder's log a moment (its install happens before the
	// reply, so it is already written by the time Negotiate returns).
	logB := h.logB.String()
	for _, want := range []string{
		"respond new phase 2 negotiation: 192.1.99.35[0]<=>192.1.99.34[0]",
		"RESPONDER setting QPFS encmodesv 1",
		"reply 1 Qblocks 1024 bits 1024.000000 entropy (offer is 1 Qblocks)",
		"KEYMAT using 128 bytes QBITS",
		"IPsec-SA established: ESP/Tunnel",
	} {
		if !strings.Contains(logB, want) {
			t.Errorf("responder log missing %q:\n%s", want, logB)
		}
	}
	logA := h.logA.String()
	if !strings.Contains(logA, "initiate new phase 2 negotiation") {
		t.Errorf("initiator log missing phase 2 begin:\n%s", logA)
	}
}

func TestKeyRollover(t *testing.T) {
	// Byte-limited SAs expire under traffic; re-negotiation brings
	// fresh key material and traffic resumes.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{Bytes: 200}, Config{}, 1<<20)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	var rolled int
	for i := uint32(1); i <= 50; i++ {
		err := h.ping(i)
		if errors.Is(err, ipsec.ErrNoSA) || errors.Is(err, ipsec.ErrExpired) {
			if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
				t.Fatalf("rollover %d: %v", i, err)
			}
			rolled++
			if err := h.ping(i); err != nil {
				t.Fatalf("ping %d after rollover: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if rolled < 3 {
		t.Errorf("expected several rollovers, got %d", rolled)
	}
	h.checkLedgers(t)
}

func TestExhaustedPoolTimesOut(t *testing.T) {
	// Ledgers too small for even one Qblock: negotiation must fail
	// by timeout (waiting for key that never comes), the scenario that
	// pressures IKE's timeout defaults (Section 7).
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{},
		Config{Phase2Timeout: 200 * time.Millisecond}, 256)
	err := h.dA.Negotiate(h.polAB, "b-to-a")
	if err == nil {
		t.Fatal("negotiation succeeded without key material")
	}
	if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want timeout or rejection", err)
	}
}

func TestLateKeyArrivalCompletesNegotiation(t *testing.T) {
	// The ledger fills mid-negotiation; the blocked allocation
	// completes once bits arrive ("it may take a while to accumulate
	// enough bits for a successful negotiation").
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{},
		Config{Phase2Timeout: 2 * time.Second}, 128) // too little initially
	done := make(chan error, 1)
	go func() { done <- h.dA.Negotiate(h.polAB, "b-to-a") }()
	time.Sleep(50 * time.Millisecond)
	// QKD layer delivers a fresh batch to both ends.
	h.deposit(4096, 7)
	if err := <-done; err != nil {
		t.Fatalf("negotiation failed despite key arrival: %v", err)
	}
	if err := h.ping(1); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestMismatchedPoolsPoisonSAsUntilRollover(t *testing.T) {
	// Residual error-correction failure: the two ledgers disagree.
	// IKE must NOT detect it; the SAs install and traffic fails
	// integrity until the next rollover with clean key (Section 7).
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 0)
	// Deposit DIFFERENT material on each side.
	h.kA.Ingest(rng.NewSplitMix64(1).Bits(8192))
	h.kB.Ingest(rng.NewSplitMix64(2).Bits(8192))
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("negotiation must succeed despite mismatched pools: %v", err)
	}
	err := h.ping(1)
	if !errors.Is(err, ipsec.ErrIntegrity) {
		t.Fatalf("ping over poisoned SA: err = %v, want ErrIntegrity", err)
	}
	// Rollover with matching material restores service.
	h.deposit(8192, 3)
	// Drain the remaining mismatched bits identically by consuming the
	// same count from both ledgers (simulates both sides discarding the
	// corrupt batch).
	na, nb := h.kA.Available(), h.kB.Available()
	h.kA.PoolView(kms.ClassRekey).TryConsume(na - 8192)
	h.kB.PoolView(kms.ClassRekey).TryConsume(nb - 8192)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("rollover: %v", err)
	}
	if err := h.ping(2); err != nil {
		t.Fatalf("ping after clean rollover: %v", err)
	}
}

func TestEveBlockingIKEIsDoS(t *testing.T) {
	// Eve drops all IKE messages: negotiation times out and the tunnel
	// never comes up — "this narrow window makes Eve's denial-of-service
	// attacks somewhat easier".
	connA, connB := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		return m, m.Type == TIKE && dir == channel.AliceToBob
	})
	// Phase 1 requires the initiator's message through; block AFTER
	// phase 1 by counting.
	passed := 0
	connA2, connB2 := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if m.Type != TIKE {
			return m, false
		}
		passed++
		return m, passed > 2 // allow the phase 1 exchange only
	})
	_ = connA
	_ = connB
	h := newHarnessConns(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{},
		Config{Phase2Timeout: 150 * time.Millisecond},
		Config{Phase2Timeout: 150 * time.Millisecond}, 65536, connA2, connB2)
	err := h.dA.Negotiate(h.polAB, "b-to-a")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout under Eve's blockade", err)
	}
	if st := h.dA.Stats(); st.Phase2Failed != 1 {
		t.Errorf("Phase2Failed = %d", st.Phase2Failed)
	}
}

func TestForgedIKEMessagesRejected(t *testing.T) {
	// Eve tampers with phase 2 traffic: the SKEYID tag fails and the
	// message is dropped (then the negotiation times out). The MITM
	// callback runs on the channel's forwarding goroutine, so the
	// tamper counter must be atomic.
	var tampered atomic.Int64
	connA, connB := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if m.Type == TIKE && len(m.Payload) > 40 { // phase 2 sized
			m.Payload[10] ^= 1
			tampered.Add(1)
		}
		return m, false
	})
	h := newHarnessConns(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{},
		Config{Phase2Timeout: 150 * time.Millisecond},
		Config{Phase2Timeout: 150 * time.Millisecond}, 65536, connA, connB)
	err := h.dA.Negotiate(h.polAB, "b-to-a")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout after forgery drops", err)
	}
	if tampered.Load() == 0 {
		t.Fatal("test bug: nothing tampered")
	}
	if st := h.dB.Stats(); st.AuthFailures == 0 {
		t.Error("responder did not record auth failures")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 65536)
	bogus := &ipsec.Policy{Name: "no-such", Action: ipsec.Protect,
		Suite:  ipsec.SuiteAES128CTR,
		PeerGW: ipsec.MustAddr("192.1.99.35"),
		Sel:    ipsec.Selector{Src: ipsec.MustPrefix("0.0.0.0/0"), Dst: ipsec.MustPrefix("0.0.0.0/0")}}
	if err := h.dA.Negotiate(bogus, "also-no-such"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestResponderCannotNegotiate(t *testing.T) {
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 65536)
	if err := h.dB.Negotiate(h.polBA, "a-to-b"); err == nil {
		t.Fatal("responder negotiated")
	}
}

func TestRekeyUpdatesKeys(t *testing.T) {
	// Two successive negotiations must install different keys (fresh
	// QKD bits each time): packets sealed under SA1 must not open under
	// SA2.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 1<<20)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	inner := &ipsec.Packet{Src: ipsec.MustAddr("10.1.0.5"), Dst: ipsec.MustAddr("10.2.0.9"),
		Proto: ipsec.ProtoPing, ID: 1, Payload: []byte("x")}
	outer1, err := h.gwA.ProcessOutbound(inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	// New outbound SA: same packet seals differently and still delivers
	// (the SPI routes to the new inbound SA).
	outer2, err := h.gwA.ProcessOutbound(inner)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(outer1.Payload, outer2.Payload) {
		t.Error("rekey did not change the key")
	}
	if _, err := h.gwB.ProcessInbound(outer2); err != nil {
		t.Fatalf("post-rekey delivery: %v", err)
	}
}

func TestFailedOTPNegotiationLeavesPoolsSynced(t *testing.T) {
	// Regression: a failed OTP negotiation must leave both ledgers at
	// the same cursor — a side that spent a range the other did not
	// would silently poison every later SA.
	//
	// The responder's ledger lags: A holds the pads, B has not been
	// given them yet, so B's claim blocks. B's own Phase2Timeout is
	// deliberately much longer than A's: the only way its claim can end
	// inside this test's window is the initiator's phase 2 cancel, so
	// the poll below genuinely pins the cancel path (a responder-side
	// timeout would take 5 s and fail the test).
	const phase2Timeout = 100 * time.Millisecond
	h := newHarnessAsym(t, ipsec.SuiteOTP, ipsec.Lifetime{},
		Config{Phase2Timeout: phase2Timeout},
		Config{Phase2Timeout: 5 * time.Second}, 0)
	pads := rng.NewSplitMix64(5).Bits(2 * 4096)
	h.kA.Ingest(pads.Clone())

	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err == nil {
		t.Fatal("negotiation succeeded while the responder had no pad")
	}
	// The initiator's timeout sends a phase 2 cancel, which aborts the
	// responder's still-blocking claim (recorded as a failed
	// negotiation on the responder). Wait for that event — NOT for the
	// responder's full Phase2Timeout window.
	// Generous deadline for loaded/race-instrumented runners; it still
	// sits well under the responder's 5 s timeout, so only the cancel
	// path can satisfy it, and the loop exits the moment it does.
	deadline := time.Now().Add(2 * time.Second)
	for h.dB.Stats().Phase2Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("responder never canceled its pending claim")
		}
		time.Sleep(time.Millisecond)
	}
	h.checkLedgers(t)
	// B catches up, both get a fresh batch, and a clean tunnel comes up.
	h.kB.Ingest(pads)
	h.deposit(2*4096, 6)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("negotiation after refill: %v", err)
	}
	if err := h.ping(1); err != nil {
		t.Fatalf("traffic over post-failure tunnel: %v", err)
	}
	h.checkLedgers(t)
}

func TestProposalTicketRoundTrip(t *testing.T) {
	// The phase-2 wire format carries the KDS ticket intact.
	p := &phase2Proposal{
		PolicyName:    "a-to-b",
		ReversePolicy: "b-to-a",
		Suite:         ipsec.SuiteOTP,
		LifeSeconds:   600,
		LifeBytes:     1 << 20,
		OTPBits:       16384,
		SPI:           0x01000007,
		TicketSeq:     42,
		TicketOff:     987654321,
		TicketBits:    32768,
	}
	got, err := decodeProposal(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip mangled the proposal:\n got %+v\nwant %+v", got, p)
	}
}

func TestNegotiateOverKeyStreams(t *testing.T) {
	// Daemons on mirrored KDS instances agree on SAs through (stream,
	// sequence) tickets: the initiator allocates, both ends claim the
	// same ledger range, and no other key moves.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 4*QblockBits)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("ticketed negotiation: %v", err)
	}
	if err := h.ping(1); err != nil {
		t.Fatalf("traffic over ticketed SAs: %v", err)
	}
	for side, k := range map[string]*kms.Service{"initiator": h.kA, "responder": h.kB} {
		if st := k.Stats(); st.ClaimedBits != QblockBits || st.ReleasedBits != 0 {
			t.Fatalf("%s claimed %d and released %d bits, want %d and 0",
				side, st.ClaimedBits, st.ReleasedBits, QblockBits)
		}
	}
	h.checkLedgers(t)
}

func TestRejectedTicketedProposalReleasesRange(t *testing.T) {
	// A ticketed negotiation the responder rejects (unknown reverse
	// policy) must release the claimed ledger range on the responder,
	// or its claim frontier stalls behind the hole forever.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{Phase2Timeout: 2 * time.Second}, 4*QblockBits)
	if err := h.dA.Negotiate(h.polAB, "no-such-policy"); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.kB.Stats().ReleasedBits != QblockBits {
		if time.Now().After(deadline) {
			t.Fatalf("responder released %d bits, want %d (frontier leak)",
				h.kB.Stats().ReleasedBits, QblockBits)
		}
		time.Sleep(time.Millisecond)
	}
	// The next (valid) ticketed negotiation still works on both ends.
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("negotiation after rejected ticket: %v", err)
	}
	h.checkLedgers(t)
}

func TestItemWithoutStreamFails(t *testing.T) {
	// A daemon without an OTP stream fails OTP items before anything
	// reaches the wire, and conventional items still go.
	h := newHarness(t, ipsec.SuiteOTP, ipsec.Lifetime{}, Config{}, 16*QblockBits)
	h.dA.otpStream = nil
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err == nil {
		t.Fatal("OTP negotiation succeeded without an OTP stream")
	}
	if st := h.dA.Stats(); st.Phase2Initiated != 0 || st.Phase2Failed != 1 {
		t.Errorf("Phase2Initiated = %d, Phase2Failed = %d, want 0 and 1", st.Phase2Initiated, st.Phase2Failed)
	}
	h.polAB.Suite = ipsec.SuiteAES128CTR
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("AES negotiation beside the missing OTP stream: %v", err)
	}
}
