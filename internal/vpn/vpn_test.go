package vpn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"qkd/internal/core"
	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/photonics"
	"qkd/internal/qnet"
	"qkd/internal/relay"
)

// fastPhotonics is a lossless link so tests distill quickly.
func fastPhotonics() photonics.Params {
	p := photonics.DefaultParams()
	p.MeanPhotons = 0.1
	p.FiberKm = 0
	p.SystemLossDB = 0
	p.DetectorEff = 1.0
	p.DarkCountProb = 1e-5
	p.Visibility = 0.96
	return p
}

func fastConfig(suite ipsec.CipherSuite) Config {
	return Config{
		Photonics: fastPhotonics(),
		QKD:       core.Config{BatchBits: 2048},
		Suite:     suite,
		OTPBits:   8192,
		Seed:      42,
	}
}

func TestEndToEndVPN(t *testing.T) {
	n, err := New(fastConfig(ipsec.SuiteAES128CTR))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	// Traffic both directions.
	got, err := n.Send(HostA, HostB, 1, []byte("hello bob"))
	if err != nil {
		t.Fatalf("A->B: %v", err)
	}
	if !bytes.Equal(got, []byte("hello bob")) {
		t.Fatalf("payload corrupted: %q", got)
	}
	got, err = n.Send(HostB, HostA, 2, []byte("hello alice"))
	if err != nil {
		t.Fatalf("B->A: %v", err)
	}
	if !bytes.Equal(got, []byte("hello alice")) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if d := n.Stats().Delivered; d != 2 {
		t.Errorf("delivered = %d", d)
	}
}

func TestVPNOverOTP(t *testing.T) {
	n, err := New(fastConfig(ipsec.SuiteOTP))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// OTP needs 2x8192 bits plus margin.
	if err := n.DistillKeys(3*8192, 300); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 20; i++ {
		if err := n.Ping(i); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

func TestTunnelHidesPlaintext(t *testing.T) {
	n, err := New(fastConfig(ipsec.SuiteAES128CTR))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	secret := []byte("extremely secret enclave data")
	n.EveTap = func(p *ipsec.Packet) (*ipsec.Packet, bool) {
		if p.Proto != ipsec.ProtoESP {
			t.Errorf("non-ESP packet on the internet: proto %d", p.Proto)
		}
		if bytes.Contains(p.Payload, secret[:12]) {
			t.Error("plaintext visible on the wire")
		}
		return p, false
	}
	if _, err := n.Send(HostA, HostB, 1, secret); err != nil {
		t.Fatal(err)
	}
}

func TestEveTamperingDetected(t *testing.T) {
	n, err := New(fastConfig(ipsec.SuiteAES128CTR))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	n.EveTap = func(p *ipsec.Packet) (*ipsec.Packet, bool) {
		p.Payload[len(p.Payload)-1] ^= 1
		return p, false
	}
	if _, err := n.Send(HostA, HostB, 1, []byte("data")); !errors.Is(err, ipsec.ErrIntegrity) {
		t.Fatalf("tampered tunnel packet: err = %v, want ErrIntegrity", err)
	}
	if gwStats := n.B.GW.Stats(); gwStats.IntegFailures != 1 {
		t.Errorf("IntegFailures = %d", gwStats.IntegFailures)
	}
}

func TestRolloverUnderByteLifetime(t *testing.T) {
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.Life = ipsec.Lifetime{Bytes: 500}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(8192, 200); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	rollovers := 0
	for i := uint32(1); i <= 40; i++ {
		_, err := n.SendWithRollover(HostA, HostB, i, make([]byte, 100))
		if err != nil {
			// Rollover may exhaust the pool: distill more and retry.
			if derr := n.DistillKeys(2048, 120); derr != nil {
				t.Fatalf("packet %d: %v (and distill: %v)", i, err, derr)
			}
			if _, err = n.SendWithRollover(HostA, HostB, i, make([]byte, 100)); err != nil {
				t.Fatalf("packet %d after refill: %v", i, err)
			}
		}
	}
	if st := n.A.IKE.Stats(); st.Phase2Initiated < 5 {
		t.Errorf("expected several rollovers, Phase2Initiated = %d", st.Phase2Initiated)
	}
	_ = rollovers
}

func TestSendWithRolloverRekeysAgainWhenFreshSASpent(t *testing.T) {
	// A rollover's SAs carry traffic once installed, a little before it
	// bumps the tunnel's generation. A flow that failed on the old SA
	// and waited out that rollover skips its own rekey as done; when the
	// fresh SA was spent in the meantime, the retry must rekey again
	// instead of failing with ErrNoSA.
	n, err := New(Config{NoQKD: true, Suite: ipsec.SuiteAES128CTR,
		Life: ipsec.Lifetime{Bytes: 200}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.ChargeSynthetic(8 * ike.QblockBits)
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	// Background rekeys would refresh the SAs behind the test's back.
	n.A.GW.OnMissingSA, n.B.GW.OnMissingSA = nil, nil
	tn := n.tunnels[0]
	// spend sends B->A until B's outbound SA is used up and removed.
	spend := func() {
		t.Helper()
		for i := uint32(0); i < 100; i++ {
			_, err := n.Send(HostB, HostA, 1000+i, make([]byte, 64))
			switch {
			case err == nil:
			case errors.Is(err, ipsec.ErrNoSA), errors.Is(err, ipsec.ErrExpired):
				return
			default:
				t.Fatalf("spending the SA: %v", err)
			}
		}
		t.Fatal("the SA never expired")
	}
	spend()

	// A rollover is in flight: it holds the tunnel's rekey lock.
	//lint:lockorder the test plays an in-flight rollover, which holds rekeyMu across its whole negotiation as rekeyTunnelFrom does
	tn.rekeyMu.Lock()
	dropped := n.Stats().Dropped
	res := make(chan error, 1)
	go func() {
		got, err := n.SendWithRollover(HostB, HostA, 1, []byte("pong"))
		if err == nil && string(got) != "pong" {
			err = errors.New("payload corrupted")
		}
		res <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for n.Stats().Dropped == dropped {
		if time.Now().After(deadline) {
			t.Fatal("the flow's first send never failed")
		}
		time.Sleep(time.Millisecond)
	}
	// The rollover installs fresh SAs, the flow's direction spends the
	// new one, and only then does the rollover bump the generation.
	if err := n.A.IKE.Negotiate(tn.polAB, tn.polBA.Name); err != nil {
		t.Fatal(err)
	}
	spend()
	tn.gen.Add(1)
	tn.rekeyMu.Unlock()
	if err := <-res; err != nil {
		t.Fatalf("SendWithRollover: %v", err)
	}
}

// TestSendAllocs pins the send path: a 64-byte AES packet through
// SendWithRollover allocates only the delivered payload's copy. The
// send scratch comes from a sync.Pool, which drops about a quarter of
// its Puts under the race detector, so race builds skip the pin.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	n, err := New(Config{NoQKD: true, Suite: ipsec.SuiteAES128CTR, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.ChargeSynthetic(4 * ike.QblockBits)
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := 0; i < 8; i++ { // warm the pool and the SPD indexes
		if _, err := n.SendWithRollover(HostA, HostB, uint32(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := n.SendWithRollover(HostA, HostB, 1, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("SendWithRollover of a 64-byte AES packet: %.1f allocs/op, want <= 1", avg)
	}
}

func TestKeyRaceOTPStarves(t *testing.T) {
	// E8's core claim in miniature: an OTP tunnel consumes pad at
	// traffic rate; with a slow QKD link the race is lost (rollovers
	// fail on an empty reservoir), while an AES tunnel sips a Qblock
	// per rollover and keeps running.
	if testing.Short() {
		t.Skip("short mode: the key race is wall-clock bound (IKE timeouts)")
	}
	mk := func(suite ipsec.CipherSuite) KeyRaceResult {
		cfg := fastConfig(suite)
		cfg.OTPBits = 16384
		cfg.IKE.Phase2Timeout = 50 * 1e6 // 50ms: fail fast when starved
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := n.DistillKeys(3*16384, 400); err != nil {
			t.Fatal(err)
		}
		if err := n.Establish(); err != nil {
			t.Fatal(err)
		}
		res, err := n.RunKeyRace(10, 1, 30, 200)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	otp := mk(ipsec.SuiteOTP)
	aes := mk(ipsec.SuiteAES128CTR)
	if aes.Delivered < otp.Delivered {
		t.Errorf("AES (%d delivered) did not beat OTP (%d) under key starvation",
			aes.Delivered, otp.Delivered)
	}
	if otp.RolloverFails == 0 {
		t.Error("OTP tunnel never starved — race parameters too generous")
	}
	if aes.RolloverFails > otp.RolloverFails {
		t.Errorf("AES starved more often (%d) than OTP (%d)", aes.RolloverFails, otp.RolloverFails)
	}
}

func TestRealisticLinkVPN(t *testing.T) {
	// Full stack at the paper's 10 km operating point.
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{
		Photonics:  photonics.DefaultParams(),
		QKD:        core.Config{BatchBits: 4096, Corrector: core.CorrectorClassic},
		Suite:      ipsec.SuiteAES128CTR,
		FrameSlots: 100000,
		Seed:       7,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(1100, 300); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	if err := n.Ping(1); err != nil {
		t.Fatal(err)
	}
}

// mixedTunnelSpecs declares n tunnels over per-tunnel /24 enclaves with
// a mix of cipher suites (mostly AES, some 3DES, the last one OTP).
func mixedTunnelSpecs(n int, life ipsec.Lifetime, otpBits int) []TunnelSpec {
	specs := make([]TunnelSpec, n)
	for i := range specs {
		suite := ipsec.SuiteAES128CTR
		switch {
		case i == n-1:
			suite = ipsec.SuiteOTP
		case i >= n-3:
			suite = ipsec.Suite3DESCBC
		}
		specs[i] = TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   suite,
			Life:    life,
			OTPBits: otpBits,
		}
	}
	return specs
}

// TestRenegotiationBoundsInboundSAD is the rollover-leak regression:
// before the generation chain, every renegotiation left the superseded
// inbound SA in the SAD forever (RemoveInbound had no callers), so
// bySPI grew without bound and expired SAs kept decrypting.
func TestRenegotiationBoundsInboundSAD(t *testing.T) {
	n, err := New(fastConfig(ipsec.SuiteAES128CTR))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(18*1024, 900); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := n.Renegotiate(); err != nil {
			t.Fatalf("renegotiation %d: %v", i, err)
		}
		for side, gw := range map[string]*ipsec.Gateway{"A": n.A.GW, "B": n.B.GW} {
			in, out := gw.SAD.Count()
			if in > 2 || out > 1 {
				t.Fatalf("gateway %s after %d renegotiations: %d inbound / %d outbound SAs (leak)",
					side, i, in, out)
			}
		}
		// Traffic still flows across every rollover generation.
		if err := n.Ping(uint32(i)); err != nil {
			t.Fatalf("ping after renegotiation %d: %v", i, err)
		}
	}
}

// TestConcurrentMultiTunnelTraffic soaks 8 tunnels with parallel flows,
// mixed cipher suites, byte lifetimes forcing mid-soak rollovers, and
// explicit mid-soak renegotiations — the concurrent dataplane under
// -race.
func TestConcurrentMultiTunnelTraffic(t *testing.T) {
	const tunnels = 8
	const packets = 16
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.Tunnels = mixedTunnelSpecs(tunnels, ipsec.Lifetime{Bytes: 512}, 8192)
	cfg.IKE.Phase2Timeout = 5 * time.Second
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(100_000, 6000); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, tunnels)
	var wg sync.WaitGroup
	for i := 0; i < tunnels; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
			dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
			payload := bytes.Repeat([]byte{byte(0xA0 + i)}, 40)
			for p := 0; p < packets; p++ {
				got, err := n.SendWithRollover(src, dst, uint32(p), payload)
				if err != nil {
					errCh <- fmt.Errorf("tunnel %d packet %d: %w", i, p, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errCh <- fmt.Errorf("tunnel %d: payload corrupted (cross-tunnel leak?)", i)
					return
				}
			}
		}(i)
	}
	// Mid-soak forced rollovers while traffic is in flight.
	for _, name := range []string{"t1", "t4"} {
		if err := n.RenegotiateTunnel(name); err != nil {
			errCh <- fmt.Errorf("mid-soak renegotiate %s: %w", name, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	delivered := n.Stats().Delivered
	if delivered != tunnels*packets {
		t.Errorf("delivered = %d, want %d", delivered, tunnels*packets)
	}
	if st := n.A.IKE.Stats(); st.Phase2Initiated < tunnels+2 {
		t.Errorf("Phase2Initiated = %d, want at least %d (establish + mid-soak rollovers)",
			st.Phase2Initiated, tunnels+2)
	}
	for side, gw := range map[string]*ipsec.Gateway{"A": n.A.GW, "B": n.B.GW} {
		st := gw.Stats()
		if st.IntegFailures != 0 {
			t.Errorf("gateway %s: %d integrity failures under concurrency", side, st.IntegFailures)
		}
		in, out := gw.SAD.Count()
		if in > 2*tunnels || out > tunnels {
			t.Errorf("gateway %s: SAD %d inbound / %d outbound, want <= %d / <= %d",
				side, in, out, 2*tunnels, tunnels)
		}
	}
}

// TestTunnelIsolation verifies flows only cross their own tunnel: a
// flow with no matching tunnel is refused, and per-tunnel suites hold.
func TestTunnelIsolation(t *testing.T) {
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.Tunnels = mixedTunnelSpecs(2, ipsec.Lifetime{}, 8192)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(20*1024, 900); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	if got := n.Tunnels(); len(got) != 2 || got[0] != "t0" || got[1] != "t1" {
		t.Fatalf("Tunnels() = %v", got)
	}
	// Both tunnels carry their own flows.
	for i := 0; i < 2; i++ {
		src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
		dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
		if _, err := n.Send(src, dst, uint32(i), []byte("scoped")); err != nil {
			t.Fatalf("tunnel %d: %v", i, err)
		}
	}
	// A flow outside every tunnel's selectors has no policy.
	_, err = n.Send(ipsec.MustAddr("10.1.9.5"), ipsec.MustAddr("10.2.9.9"), 99, []byte("stray"))
	if !errors.Is(err, ipsec.ErrNoPolicy) {
		t.Fatalf("stray flow: %v, want ErrNoPolicy", err)
	}
	if err := n.RenegotiateTunnel("nope"); err == nil {
		t.Error("renegotiating an unknown tunnel succeeded")
	}
}

func BenchmarkVPNPacket(b *testing.B) {
	n, err := New(fastConfig(ipsec.SuiteAES128CTR))
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(2048, 60); err != nil {
		b.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1000)
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Send(HostA, HostB, uint32(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKDSModeEndToEnd(t *testing.T) {
	// Full stack through the key delivery service: distillation
	// deposits into per-site KDS instances, quick mode carries
	// (stream, sequence) tickets, traffic flows — which proves the two
	// endpoints resolved every ticket to bit-identical key.
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.KDS = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.A.KDS == nil || n.B.KDS == nil {
		t.Fatal("KDS mode did not build per-site services")
	}
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(HostA, HostB, 1, []byte("ticketed hello")); err != nil {
		t.Fatalf("A->B: %v", err)
	}
	if _, err := n.Send(HostB, HostA, 2, []byte("ticketed reply")); err != nil {
		t.Fatalf("B->A: %v", err)
	}
	// Rollover draws a fresh ticket.
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Renegotiate(); err != nil {
		t.Fatalf("ticketed rollover: %v", err)
	}
	if err := n.Ping(3); err != nil {
		t.Fatal(err)
	}
	st := n.A.KDS.Stats()
	if st.Granted[1] == 0 { // ClassRekey
		t.Fatalf("no rekey-class grants recorded: %+v", st.Granted)
	}
	if st.ClaimedBits == 0 {
		t.Fatal("no ticket claims recorded")
	}
}

func TestKDSModeOTPTickets(t *testing.T) {
	// One-time-pad tunnels draw pad blocks through the ClassOTP stream.
	cfg := fastConfig(ipsec.SuiteOTP)
	cfg.KDS = true
	cfg.OTPBits = 4096
	cfg.IKE.Phase2Timeout = 2 * time.Second
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Enough for the establishment plus a rollover per packet (each
	// negotiation burns 2*OTPBits of pad).
	if err := n.DistillKeys(6*2*4096, 400); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := n.SendWithRollover(HostA, HostB, uint32(i), make([]byte, 256)); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	st := n.B.KDS.Stats()
	if st.ClaimedBits == 0 {
		t.Fatal("responder never claimed a pad ticket")
	}
	aGr := n.A.KDS.Stats().Granted
	if aGr[0] == 0 { // ClassOTP
		t.Fatalf("no OTP-class grants on the initiator: %+v", aGr)
	}
}

func TestPumpQNetFeedsBothSites(t *testing.T) {
	// A small wider network: the two VPN gateways joined by two
	// disjoint relay paths.
	rn := relay.NewNetwork(9)
	for _, v := range []string{"gwA", "gwB", "r0", "r1"} {
		rn.AddNode(v)
	}
	for _, e := range [][2]string{{"gwA", "r0"}, {"r0", "gwB"}, {"gwA", "r1"}, {"r1", "gwB"}} {
		if _, err := rn.AddLink(e[0], e[1], 1<<14); err != nil {
			t.Fatal(err)
		}
	}
	qn := qnet.NewNetwork(qnet.Config{Seed: 13})
	qn.RegisterRelay(rn)
	qn.Tick()

	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.KDS = true
	cfg.QNet = qn
	cfg.QNetSrc, cfg.QNetDst = "gwA", "gwB"
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	beforeA, beforeB := n.A.KDS.Stats(), n.B.KDS.Stats()
	if err := n.PumpQNet(2048); err != nil {
		t.Fatal(err)
	}
	afterA, afterB := n.A.KDS.Stats(), n.B.KDS.Stats()
	if got := afterA.DepositedBits - beforeA.DepositedBits; got != 2048 {
		t.Errorf("site A ingested %d qnet bits, want 2048", got)
	}
	if got := afterB.DepositedBits - beforeB.DepositedBits; got != 2048 {
		t.Errorf("site B ingested %d qnet bits, want 2048", got)
	}
	fs := n.A.KDS.Source("qnet").Stats()
	if fs.DepositedBits != 2048 {
		t.Errorf("qnet feed saw %d bits", fs.DepositedBits)
	}
	// Striped across 2 disjoint paths: neither relay could reconstruct
	// any of it, and each path consumed the pads for its share.
	for _, l := range rn.Links() {
		if got := 1<<14 - l.KeyAvailable(); got != 2048 {
			t.Errorf("link %s-%s consumed %d pad bits, want 2048", l.A, l.B, got)
		}
	}
}

// TestFabricStormCoalesces brings up a small fabric, drives every
// tunnel across its soft byte-lifetime threshold in one burst, and
// verifies the fabric-wide rollover storm coalesces into a handful of
// batched IKE exchanges rather than one per tunnel. Sized to run under
// -race in the CI short lane.
func TestFabricStormCoalesces(t *testing.T) {
	const pairs, perPair = 2, 48
	f, err := NewFabric(FabricConfig{
		Pairs:          pairs,
		TunnelsPerPair: perPair,
		OTPEvery:       8,
		OTPBits:        40960,
		Life:           ipsec.Lifetime{Bytes: 2200},
		IKE:            ike.Config{Phase2Timeout: 10 * time.Second},
		Seed:           99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Key for the initial establishment plus a couple of rollovers.
	f.ChargeKey(4 * f.KeyBitsPerRollover())
	if err := f.Establish(); err != nil {
		t.Fatal(err)
	}
	if got := f.Tunnels(); got != pairs*perPair {
		t.Fatalf("Tunnels() = %d, want %d", got, pairs*perPair)
	}
	establishBatches := make([]uint64, pairs)
	for p, n := range f.Nets {
		establishBatches[p] = n.A.IKE.Stats().Phase2Batches
	}

	// Two bursts: the first stays under the 7/8 soft threshold, the
	// second crosses it on every tunnel at once — the storm.
	payload := bytes.Repeat([]byte{0x5A}, 1000)
	burst := func(id uint32) {
		t.Helper()
		for _, n := range f.Nets {
			for i := 0; i < perPair; i++ {
				src := ipsec.Addr{10, byte(i >> 8), byte(i), 5}
				dst := ipsec.Addr{11, byte(i >> 8), byte(i), 9}
				got, err := n.Send(src, dst, id, payload)
				if err != nil {
					t.Fatalf("tunnel %d burst %d: %v", i, id, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("tunnel %d burst %d: payload corrupted", i, id)
				}
			}
		}
	}
	burst(1)
	burst(2)

	// The storm drains in the background; every tunnel must roll to a
	// fresh generation.
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range f.Nets {
		for _, tn := range n.tunnels {
			for tn.gen.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("tunnel %s never rolled over (gen %d)", tn.spec.Name, tn.gen.Load())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	// Fresh SAs carry the third burst.
	burst(3)

	for p, n := range f.Nets {
		st := n.A.IKE.Stats()
		storm := st.Phase2Batches - establishBatches[p]
		if storm == 0 {
			t.Errorf("pair %d: no batched exchanges during the storm", p)
		}
		if storm > perPair/4 {
			t.Errorf("pair %d: storm took %d batched exchanges for %d tunnels (not coalescing)",
				p, storm, perPair)
		}
		// Ticket allocation amortizes across the batch: far fewer QoS
		// passes than tunnels negotiated (establish + storm = 2 per
		// tunnel), where unbatched negotiation pays one per tunnel.
		if st.TicketAllocs >= 2*perPair {
			t.Errorf("pair %d: %d ticket allocs for %d negotiations (no amortization)",
				p, st.TicketAllocs, 2*2*perPair)
		}
		for side, gw := range map[string]*ipsec.Gateway{"A": n.A.GW, "B": n.B.GW} {
			gst := gw.Stats()
			if gst.IntegFailures != 0 {
				t.Errorf("pair %d gateway %s: %d integrity failures", p, side, gst.IntegFailures)
			}
			in, _ := gw.SAD.Count()
			if in > 2*perPair {
				t.Errorf("pair %d gateway %s: %d inbound SAs for %d tunnels (unbounded SAD)",
					p, side, in, perPair)
			}
		}
	}
}

// TestRekeyBackoffBudgetAndRecovery is the retry-storm regression: a
// rekey that fails on a starved reservoir must retry on a jittered
// exponential backoff a bounded number of times — not bounce hot
// between the dataplane signal and the queue — then stand down until
// traffic re-signals after the pool refills.
func TestRekeyBackoffBudgetAndRecovery(t *testing.T) {
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.Life = ipsec.Lifetime{Bytes: 2200}
	cfg.IKE.Phase2Timeout = 30 * time.Millisecond // starved negotiation fails fast
	cfg.RekeyBackoff = time.Millisecond
	cfg.RekeyBackoffMax = 8 * time.Millisecond
	cfg.RekeyRetryBudget = 3
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// Just enough key for the establishment; the rollover will starve.
	if err := n.DistillKeys(2048, 60); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	var tn *tunnel
	for _, x := range n.tunnels {
		tn = x
	}
	// Drain what the establishment left over — both mirrored pools
	// equally, so IKE's offset bookkeeping stays aligned.
	for _, pool := range []keypool.Pool{n.A.Pool, n.B.Pool} {
		if avail := pool.Available(); avail > 0 {
			if _, err := pool.TryConsume(avail); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Cross the soft-expiry threshold (7/8 of 2200 bytes): exactly one
	// latched signal queues the background rekey against a dry pool.
	payload := make([]byte, 1000)
	for i := uint32(1); i <= 2; i++ {
		if _, err := n.Send(HostA, HostB, i, payload); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for n.Stats().RekeyAbandoned == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rekey never exhausted its budget: %+v", n.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := n.Stats()
	if st.RekeyRetries != uint64(cfg.RekeyRetryBudget) {
		t.Errorf("RekeyRetries = %d, want exactly the budget %d (not hot-looping, not quitting early)",
			st.RekeyRetries, cfg.RekeyRetryBudget)
	}
	if st.RekeyAbandoned != 1 {
		t.Errorf("RekeyAbandoned = %d, want 1", st.RekeyAbandoned)
	}
	if g := tn.gen.Load(); g != 1 {
		t.Errorf("tunnel gen = %d after starved rekey, want 1 (no key to roll with)", g)
	}
	// Refill; the next traffic-driven signal (hard expiry removes the
	// SA and fires OnMissingSA) rekeys successfully on its first try.
	if err := n.DistillKeys(8192, 200); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for i := uint32(3); tn.gen.Load() < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("tunnel never recovered after refill: %+v", n.Stats())
		}
		_, _ = n.Send(HostA, HostB, i, payload)
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := n.Send(HostA, HostB, 99, payload); err != nil {
		t.Fatalf("post-recovery send: %v", err)
	}
	st = n.Stats()
	if st.RekeyRetries != uint64(cfg.RekeyRetryBudget) || st.RekeyAbandoned != 1 {
		t.Errorf("recovery burned extra attempts: retries %d abandoned %d", st.RekeyRetries, st.RekeyAbandoned)
	}
	if f := tn.fails.Load(); f != 0 {
		t.Errorf("tunnel fails = %d after successful rekey, want 0", f)
	}
}

// TestOverlappingRekeyBatchesDoNotDeadlock overlaps two rekey batches
// over the same tunnels, as a post-restart Renegotiate (tunnel order)
// and a rekey worker (queue order) can. Each batch holds its tunnels'
// rekey locks across the exchange. The test parks the Renegotiate-like
// batch on t1 while it holds t0, lets the worker-like batch, queued as
// [t2, t0], start, and then releases t1: batches that lock in their own
// order now each hold a lock the other needs.
func TestOverlappingRekeyBatchesDoNotDeadlock(t *testing.T) {
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	for i := 0; i < 3; i++ {
		cfg.Tunnels = append(cfg.Tunnels, TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   ipsec.SuiteAES128CTR,
		})
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(18*1024, 900); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}
	t0, t1, t2 := n.tunnels[0], n.tunnels[1], n.tunnels[2]
	// held reports, within a bound, whether another goroutine has
	// taken tn's rekey lock.
	held := func(tn *tunnel, within time.Duration) bool {
		for deadline := time.Now().Add(within); time.Now().Before(deadline); {
			if !tn.rekeyMu.TryLock() {
				return true
			}
			tn.rekeyMu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
		return false
	}
	var wg sync.WaitGroup
	batch := func(ts ...*tunnel) {
		gens := make([]uint64, len(ts))
		for i, tn := range ts {
			gens[i] = tn.gen.Load()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, err := range n.negotiateTunnels(ts, gens) {
				if err != nil {
					t.Errorf("tunnel %s: %v", ts[i].spec.Name, err)
				}
			}
		}()
	}

	t1.rekeyMu.Lock()
	batch(t0, t1, t2)
	if !held(t0, 5*time.Second) {
		t1.rekeyMu.Unlock()
		t.Fatal("tunnel-order batch never took t0")
	}
	batch(t2, t0)
	// The worker-like batch either holds t2 while it waits for t0, or,
	// locking in tunnel order, waits for t0 first and holds nothing.
	held(t2, 50*time.Millisecond)
	t1.rekeyMu.Unlock()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("overlapping rekey batches deadlocked")
	}
}

// TestGatewayRestartMidRollover crash-restarts the B gateway in the
// middle of a rollover storm and verifies clean resync: every tunnel
// comes back on fresh SAs, neither SAD leaks superseded inbound SAs,
// and the two mirrored KDS ledgers re-converge to identical cursors —
// no ticket double-burned, none lost. Sized to run under -race.
func TestGatewayRestartMidRollover(t *testing.T) {
	const tunnels = 4
	specs := make([]TunnelSpec, tunnels)
	for i := range specs {
		specs[i] = TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   ipsec.SuiteAES128CTR,
			Life:    ipsec.Lifetime{Bytes: 2200},
		}
	}
	cfg := fastConfig(ipsec.SuiteAES128CTR)
	cfg.KDS = true
	cfg.Tunnels = specs
	cfg.IKE.Phase2Timeout = 5 * time.Second
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.DistillKeys(60_000, 4000); err != nil {
		t.Fatal(err)
	}
	if err := n.Establish(); err != nil {
		t.Fatal(err)
	}

	// The storm: every tunnel's flow pushes its SA across soft expiry
	// and on through hard expiry, so background rekeys are continuously
	// in flight when the gateway dies. Send errors inside the outage
	// window are expected (no-SA gaps); the assertions come after.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < tunnels; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
			dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
			payload := bytes.Repeat([]byte{byte(0xB0 + i)}, 1000)
			for p := uint32(1); ; p++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = n.Send(src, dst, p, payload)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let rollovers get in flight
	if err := n.RestartSite('B'); err != nil {
		t.Fatalf("restart: %v", err)
	}
	close(stop)
	wg.Wait()

	if got := n.Stats().Restarts; got != 1 {
		t.Errorf("Restarts = %d, want 1", got)
	}
	// Every tunnel carries traffic again on post-restart SAs.
	for i := 0; i < tunnels; i++ {
		src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
		dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
		payload := bytes.Repeat([]byte{byte(0xC0 + i)}, 64)
		deadline := time.Now().Add(15 * time.Second)
		for {
			got, err := n.SendWithRollover(src, dst, 9000+uint32(i), payload)
			if err == nil {
				if !bytes.Equal(got, payload) {
					t.Fatalf("tunnel %d: payload corrupted after restart", i)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tunnel %d never recovered after restart: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// No leaked inbound SAs: at most cur+prev per tunnel on each side.
	for side, gw := range map[string]*ipsec.Gateway{"A": n.A.GW, "B": n.B.GW} {
		in, out := gw.SAD.Count()
		if in > 2*tunnels || out > tunnels {
			t.Errorf("gateway %s: SAD %d inbound / %d outbound after restart, want <= %d / <= %d",
				side, in, out, 2*tunnels, tunnels)
		}
	}
	// Ledger convergence: once in-flight rekeys settle, both mirrored
	// services must have burned the exact same ticket ranges.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ca, cb := n.A.KDS.Cursor(), n.B.KDS.Cursor()
		if ca == cb {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger cursors diverged after restart: A=%d B=%d", ca, cb)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
