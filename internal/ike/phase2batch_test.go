package ike

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qkd/internal/channel"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/rng"
)

// batchHarness extends the two-policy harness with n extra tunnels
// (t0..t(n-1), alternating AES and OTP suites) on both SPDs.
func newBatchHarness(t *testing.T, n int) (*harness, []BatchItem) {
	t.Helper()
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{Phase2Timeout: 2 * time.Second}, 64*1024)
	items := make([]BatchItem, 0, n)
	for i := 0; i < n; i++ {
		suite := ipsec.SuiteAES128CTR
		if i%2 == 1 {
			suite = ipsec.SuiteOTP
		}
		ab := &ipsec.Policy{Name: fmt.Sprintf("t%d/a-to-b", i), Action: ipsec.Protect, Suite: suite,
			PeerGW: ipsec.MustAddr("192.1.99.35"), OTPBits: 2048,
			Sel: ipsec.Selector{Src: ipsec.MustPrefix(fmt.Sprintf("10.11.%d.0/24", i)),
				Dst: ipsec.MustPrefix(fmt.Sprintf("10.12.%d.0/24", i))}}
		ba := &ipsec.Policy{Name: fmt.Sprintf("t%d/b-to-a", i), Action: ipsec.Protect, Suite: suite,
			PeerGW: ipsec.MustAddr("192.1.99.34"), OTPBits: 2048,
			Sel: ipsec.Selector{Src: ipsec.MustPrefix(fmt.Sprintf("10.12.%d.0/24", i)),
				Dst: ipsec.MustPrefix(fmt.Sprintf("10.11.%d.0/24", i))}}
		h.gwA.SPD.Add(ab)
		h.gwA.SPD.Add(ba)
		h.gwB.SPD.Add(ba)
		h.gwB.SPD.Add(ab)
		items = append(items, BatchItem{Policy: ab, ReversePolicy: ba.Name})
	}
	return h, items
}

func TestNegotiateBatchEstablishesManyTunnels(t *testing.T) {
	const n = 8
	h, items := newBatchHarness(t, n)
	errs, err := h.dA.NegotiateBatch(items)
	if err != nil {
		t.Fatalf("NegotiateBatch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("item %d (%s): %v", i, items[i].Policy.Name, e)
		}
	}
	// One exchange, one QoS pass per stream — not one per tunnel.
	sA, sB := h.dA.Stats(), h.dB.Stats()
	if sA.Phase2Batches != 1 || sB.Phase2Batches != 1 {
		t.Errorf("Phase2Batches = %d/%d, want 1/1", sA.Phase2Batches, sB.Phase2Batches)
	}
	if sA.TicketAllocs != 2 {
		t.Errorf("TicketAllocs = %d, want 2 (one per stream)", sA.TicketAllocs)
	}
	if sA.SAsEstablished != 2*n || sB.SAsEstablished != 2*n {
		t.Errorf("SAsEstablished = %d/%d, want %d", sA.SAsEstablished, sB.SAsEstablished, 2*n)
	}
	// Traffic flows on every tunnel, both directions.
	for i := 0; i < n; i++ {
		inner := &ipsec.Packet{
			Src: ipsec.MustAddr(fmt.Sprintf("10.11.%d.5", i)), Dst: ipsec.MustAddr(fmt.Sprintf("10.12.%d.9", i)),
			Proto: ipsec.ProtoPing, ID: uint32(i), Payload: []byte("batch ping"),
		}
		outer, err := h.gwA.ProcessOutbound(inner)
		if err != nil {
			t.Fatalf("tunnel %d outbound: %v", i, err)
		}
		if _, err := h.gwB.ProcessInbound(outer); err != nil {
			t.Fatalf("tunnel %d inbound: %v", i, err)
		}
		back := &ipsec.Packet{
			Src: ipsec.MustAddr(fmt.Sprintf("10.12.%d.9", i)), Dst: ipsec.MustAddr(fmt.Sprintf("10.11.%d.5", i)),
			Proto: ipsec.ProtoPing, ID: uint32(100 + i), Payload: []byte("batch pong"),
		}
		outer, err = h.gwB.ProcessOutbound(back)
		if err != nil {
			t.Fatalf("tunnel %d reverse outbound: %v", i, err)
		}
		if _, err := h.gwA.ProcessInbound(outer); err != nil {
			t.Fatalf("tunnel %d reverse inbound: %v", i, err)
		}
	}
}

func TestNegotiateBatchPartialFailure(t *testing.T) {
	// One rotten item (unknown reverse policy on the responder) fails
	// alone: the rest of the batch installs, and the responder releases
	// the dead item's ledger range so its claim frontier advances.
	const n = 4
	h, items := newBatchHarness(t, n)
	items[2].ReversePolicy = "no-such-policy"
	errs, err := h.dA.NegotiateBatch(items)
	if err != nil {
		t.Fatalf("NegotiateBatch: %v", err)
	}
	for i, e := range errs {
		if i == 2 {
			if !errors.Is(e, ErrRejected) {
				t.Errorf("item 2: err = %v, want ErrRejected", e)
			}
			continue
		}
		if e != nil {
			t.Errorf("item %d: %v", i, e)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.kB.Stats().ReleasedBits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("responder never released the rejected item's range")
		}
		time.Sleep(time.Millisecond)
	}
	// The healthy tunnels carry traffic; a follow-up single negotiation
	// still works (frontier not wedged).
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatalf("negotiation after partial batch: %v", err)
	}
}

// phase2Markers counts the lines perfbench's ikeRecorder parses from an
// initiator's log, and checks each begin line keeps racoon's wording.
func phase2Markers(t *testing.T, log string) (begins, installs int) {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		switch {
		case strings.Contains(line, "isakmp_ph2begin_i"):
			begins++
			if !strings.Contains(line, "initiate new phase 2 negotiation") {
				t.Errorf("begin line lacks racoon's wording: %q", line)
			}
		case strings.Contains(line, "pk_recvupdate"):
			installs++
		}
	}
	return begins, installs
}

func TestPhase2LogMarkers(t *testing.T) {
	// One begin line per exchange and one install line per tunnel, on
	// both paths into the exchange.
	h := newHarness(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, 65536)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	if b, i := phase2Markers(t, h.logA.String()); b != 1 || i != 1 {
		t.Errorf("Negotiate logged %d begin and %d install lines, want 1 and 1", b, i)
	}

	const n = 8
	hb, items := newBatchHarness(t, n)
	errs, err := hb.dA.NegotiateBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("item %d: %v", i, e)
		}
	}
	if b, i := phase2Markers(t, hb.logA.String()); b != 1 || i != n {
		t.Errorf("NegotiateBatch logged %d begin and %d install lines, want 1 and %d", b, i, n)
	}
}

// failingConn passes traffic until fail is set, then fails every Send.
type failingConn struct {
	channel.Conn
	fail atomic.Bool
}

func (c *failingConn) Send(msgType uint8, payload []byte) error {
	if c.fail.Load() {
		return errors.New("link down")
	}
	return c.Conn.Send(msgType, payload)
}

func TestFailedSendFailsExchange(t *testing.T) {
	// A request that never left must not stay pending, and must count
	// as failed: perfbench's failed ratios divide Phase2Failed by
	// Phase2Initiated.
	connA, connB := channel.MemPair(64)
	conn := &failingConn{Conn: connA}
	h := newHarnessConns(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, Config{}, 65536, conn, connB)
	conn.fail.Store(true)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err == nil {
		t.Fatal("Negotiate succeeded over a dead link")
	}
	item := BatchItem{Policy: h.polAB, ReversePolicy: "b-to-a"}
	if _, err := h.dA.NegotiateBatch([]BatchItem{item, item}); err == nil {
		t.Fatal("NegotiateBatch succeeded over a dead link")
	}
	h.dA.mu.Lock()
	pending := len(h.dA.pending)
	h.dA.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d failed exchanges left pending", pending)
	}
	if st := h.dA.Stats(); st.Phase2Initiated != 3 || st.Phase2Failed != st.Phase2Initiated {
		t.Errorf("Phase2Initiated = %d, Phase2Failed = %d, want 3 and 3", st.Phase2Initiated, st.Phase2Failed)
	}
}

func TestResponderHoldsOutboundUntilCommit(t *testing.T) {
	// While the responder's reply is in flight the initiator has not
	// installed the new inbound SA. Whatever the responder seals then
	// must still open at the initiator: a responder already on its new
	// outbound SA would seal under an SPI the initiator does not know,
	// and Eve could later replay that dropped packet into the new SA as
	// one never seen. The hook runs on the channel's forwarding
	// goroutine, before the initiator sees the reply.
	var h *harness
	var id uint32
	pongs := make(chan error, 2)
	connA, connB := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		if m.Type == TIKE && dir == channel.BobToAlice && len(m.Payload) > 0 && m.Payload[0] == kindPh2BatchResp {
			id++
			pongs <- h.pong(id)
		}
		return m, false
	})
	h = newHarnessConns(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, Config{}, Config{}, 1<<20, connA, connB)

	// Establishment: the responder has no outbound SA to seal under.
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	if err := <-pongs; !errors.Is(err, ipsec.ErrNoSA) {
		t.Fatalf("pong during establishment: err = %v, want ErrNoSA", err)
	}
	old := h.gwB.SAD.Outbound("b-to-a")
	if old == nil {
		t.Fatal("responder has no outbound SA after Negotiate returned")
	}

	// Rollover: the responder still seals under the old SA, which the
	// initiator opens; once Negotiate returns it is on the new one.
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); err != nil {
		t.Fatal(err)
	}
	if err := <-pongs; err != nil {
		t.Fatalf("pong during rollover: %v", err)
	}
	if h.gwB.SAD.Outbound("b-to-a") == old {
		t.Fatal("responder never switched to the new outbound SA")
	}
	if err := h.pong(100); err != nil {
		t.Fatalf("pong after rollover: %v", err)
	}
}

func TestUnansweredCommitFailsExchange(t *testing.T) {
	// A commit the responder never sees leaves its outbound SA held and
	// fails the negotiation on the initiator, counted and forgotten.
	connA, connB := channel.NewMITM(func(dir channel.Direction, m channel.Message) (channel.Message, bool) {
		drop := m.Type == TIKE && dir == channel.AliceToBob && len(m.Payload) > 0 && m.Payload[0] == kindPh2Commit
		return m, drop
	})
	cfg := Config{Phase2Timeout: 50 * time.Millisecond}
	h := newHarnessConns(t, ipsec.SuiteAES128CTR, ipsec.Lifetime{}, cfg, cfg, 65536, connA, connB)
	if err := h.dA.Negotiate(h.polAB, "b-to-a"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Negotiate = %v, want ErrTimeout", err)
	}
	if h.gwB.SAD.Outbound("b-to-a") != nil {
		t.Error("responder installed its outbound SA without a commit")
	}
	h.dA.mu.Lock()
	pending := len(h.dA.pending)
	h.dA.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d failed exchanges left pending", pending)
	}
	if st := h.dA.Stats(); st.Phase2Failed != 1 || st.Phase2Initiated != 1 {
		t.Errorf("Phase2Initiated = %d, Phase2Failed = %d, want 1 and 1", st.Phase2Initiated, st.Phase2Failed)
	}
}

// FuzzPhase2Batch: decoding a batched quick-mode request never panics,
// and a body that decodes re-encodes to the same bytes. The seeds hold
// TestProposalTicketRoundTrip's proposal and a variant, a short
// proposal and a trailing byte, both of which must be rejected.
func FuzzPhase2Batch(f *testing.F) {
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
	q := *p
	q.Suite, q.OTPBits, q.Qblocks = ipsec.SuiteAES128CTR, 0, 1
	q.TicketSeq, q.TicketOff, q.TicketBits = 43, 987654321+32768, QblockBits
	valid := encodeBatch(nil, []*phase2Proposal{p, &q})
	// The reverse policy's length claims one byte too many, which
	// leaves the fixed fields one byte short.
	short := encodeBatch(nil, []*phase2Proposal{p})
	short[7+len(p.PolicyName)]++
	f.Add(valid)
	f.Add(short)
	f.Add(append(bytes.Clone(valid), 0))
	f.Add(valid[:len(valid)-1])
	f.Add(encodeBatch(nil, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		props, err := decodeBatch(b)
		if err != nil {
			return
		}
		if got := encodeBatch(nil, props); !bytes.Equal(got, b) {
			t.Fatalf("decoded body re-encodes differently:\n got %x\nwant %x", got, b)
		}
	})
}

// BenchmarkNegotiateBatch runs one quick-mode exchange per op over n
// AES tunnels, keyed from mirrored KDS streams as vpn keys them; 32 is
// perfbench's rekey batch.
func BenchmarkNegotiateBatch(b *testing.B) {
	for _, n := range []int{1, 32} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			connA, connB := channel.MemPair(64)
			var pols []*ipsec.Policy
			items := make([]BatchItem, n)
			for i := range items {
				ab := &ipsec.Policy{Name: fmt.Sprintf("t%d/a-to-b", i), Action: ipsec.Protect,
					Suite: ipsec.SuiteAES128CTR, PeerGW: ipsec.MustAddr("192.1.99.35"),
					Sel: ipsec.Selector{Src: ipsec.MustPrefix(fmt.Sprintf("10.11.%d.0/24", i)),
						Dst: ipsec.MustPrefix(fmt.Sprintf("10.12.%d.0/24", i))}}
				ba := &ipsec.Policy{Name: fmt.Sprintf("t%d/b-to-a", i), Action: ipsec.Protect,
					Suite: ipsec.SuiteAES128CTR, PeerGW: ipsec.MustAddr("192.1.99.34"),
					Sel: ipsec.Selector{Src: ab.Sel.Dst, Dst: ab.Sel.Src}}
				pols = append(pols, ab, ba)
				items[i] = BatchItem{Policy: ab, ReversePolicy: ba.Name}
			}
			gwA := ipsec.NewGateway(ipsec.MustAddr("192.1.99.34"), ipsec.NewSPD(pols...))
			gwB := ipsec.NewGateway(ipsec.MustAddr("192.1.99.35"), ipsec.NewSPD(pols...))
			kA, kB := kms.New(kms.Config{}), kms.New(kms.Config{})
			defer kA.Close()
			defer kB.Close()
			qbA, otpA := keyStreams(b, kA)
			qbB, otpB := keyStreams(b, kB)
			key := rng.NewSplitMix64(1).Bits((b.N + 1) * n * QblockBits)
			kA.Ingest(key.Clone())
			kB.Ingest(key)
			dA := NewDaemon(Initiator, connA, gwA, qbA, otpA, []byte("psk"), Config{}, nil)
			dB := NewDaemon(Responder, connB, gwB, qbB, otpB, []byte("psk"), Config{}, nil)
			go dB.Start()
			if err := dA.Start(); err != nil {
				b.Fatal(err)
			}
			defer dA.Stop()
			defer dB.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errs, err := dA.NegotiateBatch(items)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range errs {
					if e != nil {
						b.Fatal(e)
					}
				}
			}
		})
	}
}
