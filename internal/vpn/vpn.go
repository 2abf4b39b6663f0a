// Package vpn assembles the full system of Figs. 2 and 11: two private
// enclaves, each behind a gateway that combines an IPsec dataplane, an
// IKE daemon with QKD extensions, and one end of a quantum key
// distribution link. User traffic entering gateway A in the clear
// leaves gateway B in the clear, protected in between by keys that
// exist only because single photons made it down the fiber.
//
//	enclave A -- gwA ==[internet: ESP tunnel]== gwB -- enclave B
//	              \\                             //
//	               ==[quantum channel + QKD protocols]==
//
// A gateway pair carries N tunnels (Config.Tunnels), each with its own
// selector prefixes, cipher suite and lifetime; Send is safe for
// concurrent use, rollovers are per-tunnel and deduplicated, and a
// soft-expiring SA triggers a background rekey before its hard stop.
package vpn

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qkd/internal/channel"
	"qkd/internal/core"
	"qkd/internal/flow"
	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/photonics"
	"qkd/internal/qnet"
	"qkd/internal/rng"
)

// TunnelSpec declares one protected tunnel between the two enclaves:
// traffic PrefixA -> PrefixB is protected A-side outbound, the reverse
// direction B-side outbound. Suite and Life are taken verbatim (the
// zero values — AES-128-CTR, unbounded lifetime — are themselves valid
// choices, so explicit specs never inherit the Config-wide Suite/Life);
// a zero OTPBits inherits Config.OTPBits.
type TunnelSpec struct {
	// Name labels the tunnel; policy names derive from it. Empty is
	// allowed for a single default tunnel ("a-to-b"/"b-to-a" policies).
	Name string
	// PrefixA/PrefixB are the enclave selectors behind gateway A and B.
	PrefixA ipsec.Prefix
	PrefixB ipsec.Prefix
	// Suite protects this tunnel's traffic.
	Suite ipsec.CipherSuite
	// Life bounds each negotiated SA.
	Life ipsec.Lifetime
	// OTPBits is the per-direction pad withdrawal for SuiteOTP tunnels.
	OTPBits int
}

// Config assembles a network.
type Config struct {
	// Photonics configures the quantum link (DefaultParams if zero).
	Photonics photonics.Params
	// QKD configures the protocol engines.
	QKD core.Config
	// IKE configures both daemons.
	IKE ike.Config
	// Suite protects enclave traffic (tunnels may override per-spec).
	Suite ipsec.CipherSuite
	// Life bounds each negotiated SA.
	Life ipsec.Lifetime
	// OTPBits is the per-direction pad withdrawal for SuiteOTP tunnels.
	OTPBits int
	// Tunnels declares the gateway pair's tunnels. Empty means the
	// classic single HostA/HostB tunnel over 10.1/16 <-> 10.2/16.
	Tunnels []TunnelSpec
	// FrameSlots is the pulse count per QKD frame.
	FrameSlots int
	// Seed drives all simulation randomness.
	Seed uint64
	// NoQKD skips building the photon-level QKD session entirely; key
	// material arrives via ChargeSynthetic instead. The fabric-scale
	// experiments use this: simulating single photons for 100k tunnels
	// is neither feasible nor the point.
	NoQKD bool
	// RekeyWorkers sizes the background rekeyer's worker pool (default
	// 2). Workers drain the deduplicated rekey queue in batches, so a
	// fabric-wide expiry storm coalesces into a few batched IKE
	// exchanges instead of a thundering herd of negotiations.
	RekeyWorkers int
	// RekeyBatch caps tunnels per batched IKE exchange (default 256).
	RekeyBatch int
	// RekeyBackoff is the base delay before a failed background rekey
	// is retried (default 5ms). Retries back off exponentially with
	// jitter up to RekeyBackoffMax (default 500ms) and stop after
	// RekeyRetryBudget attempts (default 8), leaving the tunnel to the
	// next traffic-driven signal — so a starved reservoir produces a
	// trickle of spaced retries, never a hot requeue loop.
	RekeyBackoff     time.Duration
	RekeyBackoffMax  time.Duration
	RekeyRetryBudget int
	// KDS routes all key delivery through a per-site kms.Service: the
	// distillation engines deposit into the KDS, and the IKE daemons
	// withdraw Qblocks and OTP pads as (stream, sequence) ticket claims
	// under the QoS scheduler instead of lockstep pool withdrawals.
	KDS bool
	// KDSConfig tunes the services when KDS is set (zero value = kms
	// defaults with a fully synchronized ledger).
	KDSConfig kms.Config
	// FlowControl, with KDS, attaches a flow credit controller to the
	// background rekeyer: batch bursts are paced by the controller's
	// AIMD window (ticked per batch against kms pressure marks) instead
	// of always draining rekeyBatch tunnels, and a marked controller
	// jumps retry backoff straight to the cap — the closed-loop
	// alternative to discovering overload through ErrOverload sheds.
	FlowControl bool
	// FlowConfig tunes the rekey controller when FlowControl is set.
	FlowConfig flow.Config
	// QNet, when set alongside KDS, supplements the direct link with
	// end-to-end key striped across the unified QKD network: PumpQNet
	// transports key over QNetStripes vertex-disjoint paths and
	// deposits it into both sites' services through mirrored "qnet"
	// custody feeds. The two gateways must be registered in the QNet
	// topology as QNetSrc and QNetDst.
	QNet             *qnet.Network
	QNetSrc, QNetDst string
	// QNetStripes is the disjoint-path share count k (default 2: no
	// single relay of the wider network ever holds a delivered key).
	QNetStripes int
	// IKELogA / IKELogB, when non-nil, receive each daemon's
	// racoon-style log lines (Fig. 12).
	IKELogA io.Writer
	IKELogB io.Writer
}

// Site is one end of the VPN: gateway plus its control-plane pieces.
type Site struct {
	GW  *ipsec.Gateway
	IKE *ike.Daemon
	// Pool is the site's distilled-key supply: a raw reservoir, or the
	// KDS-backed view when Config.KDS is set.
	Pool keypool.Pool
	// KDS is the site's key delivery service (nil unless Config.KDS).
	KDS *kms.Service
}

// tunnel is one assembled protected path: its two directional policies
// plus the rollover bookkeeping that keeps concurrent rekeys single.
type tunnel struct {
	spec  TunnelSpec
	polAB *ipsec.Policy
	polBA *ipsec.Policy
	idx   int // position in Network.tunnels, the order rekey locks are taken in

	rekeyMu      sync.Mutex
	gen          atomic.Uint64 // completed negotiations
	rekeyPending atomic.Bool   // queued on the background rekeyer
	// fails counts consecutive failed background rekeys; it drives the
	// exponential backoff and resets on the first success.
	fails atomic.Uint32
}

// rekeyReq is one queued background rekey: the tunnel plus the
// generation the signaling dataplane path observed.
type rekeyReq struct {
	t   *tunnel
	gen uint64
}

// defaults for the coalescing rekeyer.
const (
	defaultRekeyWorkers    = 2
	defaultRekeyBatch      = 256
	defaultRekeyBackoff    = 5 * time.Millisecond
	defaultRekeyBackoffMax = 500 * time.Millisecond
	defaultRekeyBudget     = 8
)

// Network is the assembled two-site system.
type Network struct {
	A, B    *Site
	Session *core.Session

	qnet             *qnet.Network
	qnetSrc, qnetDst string
	qnetK            int
	qnetFeedA        *kms.Feed
	qnetFeedB        *kms.Feed

	tunnels  []*tunnel
	byPolicy map[string]*tunnel
	// flowSPD indexes every tunnel's two directional policies in
	// declaration order, so matchTunnel is a tuple-space lookup with the
	// linear scan's first-match semantics instead of an O(tunnels) walk.
	flowSPD *ipsec.SPD

	// Background rekeyer: gateway soft-expiry (and missing-SA) signals
	// funnel into a deduplicated queue (a tunnel appears at most once,
	// via rekeyPending) drained by a small worker pool in batches of
	// rekeyBatch. Each request carries the tunnel generation observed
	// when the signal fired, so a rollover that already happened in the
	// meantime voids it. The batching is what tames a fabric-wide
	// expiry storm: ten thousand soft-expiry signals collapse into a
	// few dozen batched IKE exchanges, each with one QoS ledger ticket
	// per key stream.
	rekeyQMu     sync.Mutex
	rekeyQ       []rekeyReq
	rekeyCond    *sync.Cond
	rekeyClosed  bool
	rekeyWorkers int
	rekeyBatch   int
	rekeyWG      sync.WaitGroup

	// Failed background rekeys retry on a jittered exponential backoff
	// with a per-tunnel budget; the jitter source is shared and so
	// mutex-guarded.
	rekeyBackoff    time.Duration
	rekeyBackoffMax time.Duration
	rekeyBudget     int
	jitterMu        sync.Mutex
	jitter          *rng.SplitMix64

	// rekeyCtl, when FlowControl is configured, is the ClassRekey credit
	// controller pacing batch bursts and backoff (nil otherwise).
	rekeyCtl *flow.Controller
	// authCtl is the LEDBAT-style background controller for auth-pad
	// replenishment: its yielded window biases the distillation batch
	// split (core.AuthBias) and registers ClassAuth demand.
	authCtl *flow.Background

	// ikeMu guards the Site.IKE daemon pointers against RestartSite
	// swapping them mid-use: negotiation paths hold it shared for the
	// whole exchange, so a restart's exclusive acquisition doubles as
	// the drain barrier for in-flight batches. Lock order: a tunnel's
	// rekeyMu (if held) is always taken before ikeMu.
	ikeMu            sync.RWMutex
	ikeCfgA, ikeCfgB ike.Config
	ikeLogA, ikeLogB io.Writer
	qbA, otpA        *kms.Stream
	qbB, otpB        *kms.Stream

	// seed feeds ChargeSynthetic's deterministic key generator.
	seed      uint64
	synthSeed atomic.Uint64

	// EveTap, when set, sees every tunnel packet crossing the simulated
	// internet and may drop or rewrite it. It is called from every
	// concurrent Send, so the tap must be safe for parallel use. The
	// packet and its payload live in the send's pooled batch and are
	// valid only during the call: a tap that keeps a packet must copy it.
	EveTap func(p *ipsec.Packet) (*ipsec.Packet, bool)

	delivered      atomic.Uint64
	dropped        atomic.Uint64
	rekeyRetries   atomic.Uint64
	rekeyAbandoned atomic.Uint64
	restarts       atomic.Uint64
}

// vpnPSK authenticates Phase 1 on both daemons (and their rebuilds
// after a gateway restart).
var vpnPSK = []byte("darpa-quantum-network-psk")

// Addresses used throughout (mirroring the paper's 192.1.99.x testbed).
var (
	GatewayA = ipsec.MustAddr("192.1.99.34")
	GatewayB = ipsec.MustAddr("192.1.99.35")
	HostA    = ipsec.MustAddr("10.1.0.5")
	HostB    = ipsec.MustAddr("10.2.0.9")
)

// policyNames derives the two directional policy names for a spec.
func (s TunnelSpec) policyNames() (ab, ba string) {
	if s.Name == "" {
		return "a-to-b", "b-to-a"
	}
	return s.Name + "/a-to-b", s.Name + "/b-to-a"
}

// New assembles the network. Call Establish to bring the tunnels up.
func New(cfg Config) (*Network, error) {
	if cfg.Photonics.PulseRateHz == 0 {
		cfg.Photonics = photonics.DefaultParams()
	}
	if cfg.OTPBits == 0 {
		cfg.OTPBits = 64 * 1024
	}
	specs := cfg.Tunnels
	if len(specs) == 0 {
		// The classic single tunnel is the one place the Config-wide
		// Suite/Life apply (explicit specs carry their own verbatim:
		// the zero suite IS AES, so inheritance would be ambiguous).
		specs = []TunnelSpec{{
			PrefixA: ipsec.MustPrefix("10.1.0.0/16"),
			PrefixB: ipsec.MustPrefix("10.2.0.0/16"),
			Suite:   cfg.Suite,
			Life:    cfg.Life,
		}}
	}

	// With a KDS per site, distillation deposits into the service and
	// quick mode draws (stream, sequence) blocks: "ike/qblocks" for
	// conventional rekeys at ClassRekey, "ike/otp" for pad withdrawal
	// at ClassOTP. Both sites register mirrored streams.
	var kdsA, kdsB *kms.Service
	var qbA, otpA, qbB, otpB *kms.Stream
	poolA, poolB := keypool.Pool(keypool.New()), keypool.Pool(keypool.New())
	if cfg.KDS {
		kdsA, kdsB = kms.New(cfg.KDSConfig), kms.New(cfg.KDSConfig)
		var err error
		mk := func(svc *kms.Service) (qb, otp *kms.Stream) {
			if err != nil {
				return nil, nil
			}
			if qb, err = svc.NewStream("ike/qblocks", ike.QblockBits, kms.ClassRekey); err != nil {
				return nil, nil
			}
			otp, err = svc.NewStream("ike/otp", 1024, kms.ClassOTP)
			return qb, otp
		}
		qbA, otpA = mk(kdsA)
		qbB, otpB = mk(kdsB)
		if err != nil {
			return nil, fmt.Errorf("vpn: building KDS streams: %w", err)
		}
		poolA, poolB = kdsA.PoolView(kms.ClassRekey), kdsB.PoolView(kms.ClassRekey)
	}
	// A fabric-scale network skips the photon-level session: the pools
	// are charged synthetically instead (ChargeSynthetic).
	var session *core.Session
	if !cfg.NoQKD {
		session = core.NewSessionWithPools(cfg.Photonics, cfg.QKD, cfg.FrameSlots, cfg.Seed, poolA, poolB)
	}

	if cfg.RekeyWorkers <= 0 {
		cfg.RekeyWorkers = defaultRekeyWorkers
	}
	if cfg.RekeyBatch <= 0 {
		cfg.RekeyBatch = defaultRekeyBatch
	}
	if cfg.RekeyBackoff <= 0 {
		cfg.RekeyBackoff = defaultRekeyBackoff
	}
	if cfg.RekeyBackoffMax <= 0 {
		cfg.RekeyBackoffMax = defaultRekeyBackoffMax
	}
	if cfg.RekeyRetryBudget <= 0 {
		cfg.RekeyRetryBudget = defaultRekeyBudget
	}
	n := &Network{
		Session:         session,
		byPolicy:        make(map[string]*tunnel),
		rekeyWorkers:    cfg.RekeyWorkers,
		rekeyBatch:      cfg.RekeyBatch,
		rekeyBackoff:    cfg.RekeyBackoff,
		rekeyBackoffMax: cfg.RekeyBackoffMax,
		rekeyBudget:     cfg.RekeyRetryBudget,
		jitter:          rng.NewSplitMix64(cfg.Seed ^ 0x717A3D),
		seed:            cfg.Seed,
	}
	n.rekeyCond = sync.NewCond(&n.rekeyQMu)
	if cfg.KDS && cfg.FlowControl {
		// The rekey window starts at one batch worth of Qblocks and caps
		// at a full rekeyBatch unless the caller says otherwise.
		fc := cfg.FlowConfig
		if fc.MinWindow <= 0 {
			fc.MinWindow = ike.QblockBits
		}
		if fc.MaxWindow <= 0 {
			fc.MaxWindow = cfg.RekeyBatch * ike.QblockBits
		}
		n.rekeyCtl = flow.NewController("vpn/rekey", kms.ClassRekey, kdsA, fc)
		n.authCtl = flow.NewBackground("vpn/auth", kdsA, flow.BackgroundConfig{})
		if session != nil {
			// The background window, ticked once per distilled batch,
			// caps the per-direction auth-pad share: while foreground
			// demand is active the window collapses and whole batches
			// reach the starved classes; when it clears, replenishment
			// ramps back. The AuthBias latch keeps the mirrored engines'
			// splits identical.
			session.SetAuthBias(core.NewAuthBias(func(base int) int {
				if w := n.authCtl.Tick() / 2; w < base {
					return w
				}
				return base
			}))
		}
	}
	var spdA, spdB []*ipsec.Policy
	seen := make(map[string]bool)
	for _, spec := range specs {
		if spec.OTPBits == 0 {
			spec.OTPBits = cfg.OTPBits
		}
		nameAB, nameBA := spec.policyNames()
		if seen[nameAB] {
			return nil, fmt.Errorf("vpn: duplicate tunnel name %q", spec.Name)
		}
		seen[nameAB] = true
		t := &tunnel{
			spec: spec,
			idx:  len(n.tunnels),
			polAB: &ipsec.Policy{
				Name: nameAB, Action: ipsec.Protect, Suite: spec.Suite,
				PeerGW: GatewayB, Life: spec.Life, OTPBits: spec.OTPBits,
				Sel: ipsec.Selector{Src: spec.PrefixA, Dst: spec.PrefixB},
			},
			polBA: &ipsec.Policy{
				Name: nameBA, Action: ipsec.Protect, Suite: spec.Suite,
				PeerGW: GatewayA, Life: spec.Life, OTPBits: spec.OTPBits,
				Sel: ipsec.Selector{Src: spec.PrefixB, Dst: spec.PrefixA},
			},
		}
		n.tunnels = append(n.tunnels, t)
		n.byPolicy[nameAB], n.byPolicy[nameBA] = t, t
		spdA = append(spdA, t.polAB, t.polBA)
		spdB = append(spdB, t.polBA, t.polAB)
	}
	n.flowSPD = ipsec.NewSPD(spdA...)
	gwA := ipsec.NewGateway(GatewayA, ipsec.NewSPD(spdA...))
	gwB := ipsec.NewGateway(GatewayB, ipsec.NewSPD(spdB...))

	ikeConnA, ikeConnB := channel.MemPair(64)
	cfgI := cfg.IKE
	cfgI.Seed = cfg.Seed ^ 0x1CE
	dA := ike.NewDaemon(ike.Initiator, ikeConnA, gwA, poolA, vpnPSK, cfgI, cfg.IKELogA)
	cfgR := cfg.IKE
	cfgR.Seed = cfg.Seed ^ 0x2CE
	dB := ike.NewDaemon(ike.Responder, ikeConnB, gwB, poolB, vpnPSK, cfgR, cfg.IKELogB)
	if cfg.KDS {
		dA.SetKeyStreams(qbA, otpA)
		dB.SetKeyStreams(qbB, otpB)
	}
	// RestartSite rebuilds daemons from these.
	n.ikeCfgA, n.ikeCfgB = cfgI, cfgR
	n.ikeLogA, n.ikeLogB = cfg.IKELogA, cfg.IKELogB
	n.qbA, n.otpA, n.qbB, n.otpB = qbA, otpA, qbB, otpB

	n.A = &Site{GW: gwA, IKE: dA, Pool: poolA, KDS: kdsA}
	n.B = &Site{GW: gwB, IKE: dB, Pool: poolB, KDS: kdsB}
	if cfg.KDS && cfg.QNet != nil {
		if cfg.QNetStripes <= 0 {
			cfg.QNetStripes = 2
		}
		fa, err := kdsA.AttachSource("qnet")
		if err != nil {
			return nil, fmt.Errorf("vpn: attaching qnet feed: %w", err)
		}
		fb, err := kdsB.AttachSource("qnet")
		if err != nil {
			return nil, fmt.Errorf("vpn: attaching qnet feed: %w", err)
		}
		n.qnet = cfg.QNet
		n.qnetSrc, n.qnetDst = cfg.QNetSrc, cfg.QNetDst
		n.qnetK = cfg.QNetStripes
		n.qnetFeedA, n.qnetFeedB = fa, fb
	}
	return n, nil
}

// Tunnels returns the tunnel names in declaration order.
func (n *Network) Tunnels() []string {
	out := make([]string, len(n.tunnels))
	for i, t := range n.tunnels {
		out[i] = t.spec.Name
	}
	return out
}

// PumpQNet transports nbits of fresh end-to-end key across the unified
// QKD network as Config.QNetStripes XOR shares over vertex-disjoint
// paths and deposits it into both sites' key delivery services through
// the mirrored "qnet" custody feeds — a second key source beside the
// direct link, with no relay of the wider network ever holding the key.
// Like any multi-source deposit, call it at quiescent points (between
// distillation pumps): mirrored services must observe the same merged
// ingest order.
func (n *Network) PumpQNet(nbits int) error {
	if n.qnet == nil {
		return errors.New("vpn: no QNet configured (set Config.KDS and Config.QNet)")
	}
	tr, err := n.qnet.NewTransport(n.qnetSrc, n.qnetDst, nbits, n.qnetK, qnet.TransportOpts{
		FeedA: n.qnetFeedA, FeedB: n.qnetFeedB,
	})
	if err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	if err := tr.Run(64); err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	if _, err := tr.Finish(); err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	return nil
}

// PumpQNetDemand is the closed-loop PumpQNet: the transport is sized
// by the windowed demand flow controllers have registered with site A's
// delivery service (clamped by the qnet defaults) instead of a
// caller-fixed nbits — replenishment tracks what consumers actually
// announced they need. Both mirrored feeds receive identical bits, so
// the ledger contract is untouched.
func (n *Network) PumpQNetDemand() error {
	if n.qnet == nil {
		return errors.New("vpn: no QNet configured (set Config.KDS and Config.QNet)")
	}
	tr, err := n.qnet.NewDemandTransport(n.qnetSrc, n.qnetDst, n.A.KDS, n.qnetK, qnet.TransportOpts{
		FeedA: n.qnetFeedA, FeedB: n.qnetFeedB,
	})
	if err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	if err := tr.Run(64); err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	if _, err := tr.Finish(); err != nil {
		return fmt.Errorf("vpn: qnet transport: %w", err)
	}
	return nil
}

// RekeyController exposes the rekeyer's flow controller (nil unless
// Config.FlowControl) so harnesses can read its window and mark state.
func (n *Network) RekeyController() *flow.Controller { return n.rekeyCtl }

// AuthController exposes the background auth-replenishment controller
// (nil unless Config.FlowControl).
func (n *Network) AuthController() *flow.Background { return n.authCtl }

// DistillKeys pumps QKD frames until both reservoirs hold at least
// bits, within maxFrames.
func (n *Network) DistillKeys(bits, maxFrames int) error {
	if n.Session == nil {
		return errors.New("vpn: NoQKD network has no distillation session (use ChargeSynthetic)")
	}
	return n.Session.RunUntilDistilled(bits, maxFrames)
}

// ChargeSynthetic deposits `bits` of identical deterministic key into
// both sites' supplies, standing in for distillation on NoQKD
// (fabric-scale) networks: the mirrored-reservoir invariant the QKD
// layer normally provides — same bits, same order, both ends — is
// preserved, just without simulating the photons that justify it.
func (n *Network) ChargeSynthetic(bits int) {
	seq := n.synthSeed.Add(1)
	material := rng.NewSplitMix64(n.seed ^ 0xC4A26E*seq).Bits(bits)
	n.A.Pool.Deposit(material.Clone())
	n.B.Pool.Deposit(material)
}

// Establish starts both IKE daemons (Phase 1), negotiates every
// tunnel's first SAs, and wires the gateways' soft-rekey signals into
// the background rekeyer. The reservoirs must hold key material (run
// DistillKeys first, or let the negotiation block on late arrival).
func (n *Network) Establish() error {
	errCh := make(chan error, 1)
	go func() { errCh <- n.B.IKE.Start() }()
	if err := n.A.IKE.Start(); err != nil {
		return fmt.Errorf("vpn: initiator IKE: %w", err)
	}
	if err := <-errCh; err != nil {
		return fmt.Errorf("vpn: responder IKE: %w", err)
	}
	if err := n.Renegotiate(); err != nil {
		return err
	}
	// Soft-expiry (and missing-SA) signals from either gateway request a
	// deduplicated background rekey. Only wired after establishment so
	// stray signals never race Phase 1.
	for i := 0; i < n.rekeyWorkers; i++ {
		n.rekeyWG.Add(1)
		go n.rekeyWorker()
	}
	n.A.GW.OnMissingSA = n.requestRekey
	n.B.GW.OnMissingSA = n.requestRekey
	return nil
}

// requestRekey queues a tunnel for background renegotiation; duplicate
// signals while one is queued or running collapse into it. The request
// carries the generation observed *now*, at signal time: if any other
// path rolls the tunnel over before the rekeyer dequeues it, the stale
// request is void and burns no key. Called from the dataplane
// (the gateways' outbound path), so it never blocks.
func (n *Network) requestRekey(pol *ipsec.Policy) {
	t := n.byPolicy[pol.Name]
	if t == nil {
		return
	}
	if !t.rekeyPending.CompareAndSwap(false, true) {
		return
	}
	req := rekeyReq{t, t.gen.Load()}
	n.rekeyQMu.Lock()
	if n.rekeyClosed {
		n.rekeyQMu.Unlock()
		t.rekeyPending.Store(false)
		return
	}
	n.rekeyQ = append(n.rekeyQ, req)
	n.rekeyQMu.Unlock()
	n.rekeyCond.Signal()
}

// rekeyWorker drains the rekey queue in batches. The pending dedup
// guarantees a tunnel sits in at most one worker's batch at a time, so
// workers hold disjoint sets of tunnel rekey locks and cannot deadlock
// against each other (or against single-tunnel rekey paths, which only
// ever hold one). Renegotiate's batches can overlap a worker's; both
// take the locks in tunnel order (negotiateTunnels), so they cannot
// deadlock either.
func (n *Network) rekeyWorker() {
	defer n.rekeyWG.Done()
	for {
		n.rekeyQMu.Lock()
		for len(n.rekeyQ) == 0 && !n.rekeyClosed {
			n.rekeyCond.Wait()
		}
		if n.rekeyClosed {
			n.rekeyQMu.Unlock()
			return
		}
		take := len(n.rekeyQ)
		if take > n.rekeyBatch {
			take = n.rekeyBatch
		}
		// Flow control paces the burst: the controller's credit window
		// (ticked here, once per batch, against the KDS pressure signal)
		// converts to tunnels at one Qblock each. Under pressure the
		// window decays multiplicatively and a storm drains in small
		// spaced bites the scheduler can absorb; unmarked, it grows back
		// toward full batches.
		if n.rekeyCtl != nil {
			if cap := n.rekeyCtl.Tick() / ike.QblockBits; cap >= 1 && take > cap {
				take = cap
			}
		}
		batch := make([]rekeyReq, take)
		copy(batch, n.rekeyQ)
		n.rekeyQ = n.rekeyQ[:copy(n.rekeyQ, n.rekeyQ[take:])]
		n.rekeyQMu.Unlock()

		ts := make([]*tunnel, len(batch))
		gens := make([]uint64, len(batch))
		for i, r := range batch {
			ts[i], gens[i] = r.t, r.gen
		}
		// A failed tunnel (starved reservoir, shed ticket, restarting
		// peer) re-queues itself after a jittered exponential backoff
		// instead of bouncing hot between the dataplane signal and the
		// queue; its rekeyPending flag stays held through the wait so
		// fresh signals keep collapsing into the scheduled retry.
		errs := n.negotiateTunnels(ts, gens)
		for i, r := range batch {
			if errs[i] != nil {
				// A shed ticket is hard congestion feedback: cut the
				// window now instead of waiting for the next tick's
				// pressure sample.
				if n.rekeyCtl != nil && errors.Is(errs[i], kms.ErrOverload) {
					n.rekeyCtl.OnShed()
				}
				n.retryLater(r.t)
				continue
			}
			r.t.fails.Store(0)
			r.t.rekeyPending.Store(false)
		}
	}
}

// retryLater schedules a failed tunnel's next rekey attempt, or gives
// the tunnel up to the next traffic-driven signal once its retry
// budget is spent.
func (n *Network) retryLater(t *tunnel) {
	fails := t.fails.Add(1)
	if int(fails) > n.rekeyBudget {
		t.fails.Store(0)
		t.rekeyPending.Store(false)
		n.rekeyAbandoned.Add(1)
		return
	}
	n.rekeyRetries.Add(1)
	time.AfterFunc(n.backoffDelay(fails), func() { n.requeue(t) })
}

// backoffDelay is the jittered exponential backoff for a tunnel's
// attempt number fails (1-based): base<<(fails-1) capped at the max,
// then uniformly jittered over [d/2, d) so a batch of simultaneous
// failures doesn't re-converge into a synchronized retry storm. When
// the site's key delivery service is already signalling pressure, the
// delay jumps straight to the cap — retrying sooner would only feed
// the overload the KDS is trying to shed.
func (n *Network) backoffDelay(fails uint32) time.Duration {
	d := n.rekeyBackoff << (fails - 1)
	if d <= 0 || d > n.rekeyBackoffMax {
		d = n.rekeyBackoffMax
	}
	if n.rekeyCtl != nil && n.rekeyCtl.Marked() {
		// The flow controller marks well before pressure reaches the
		// shed point — back off at the early signal, not the cliff.
		d = n.rekeyBackoffMax
	} else if s := n.A.KDS; s != nil && s.Pressure() >= 1 {
		d = n.rekeyBackoffMax
	}
	n.jitterMu.Lock()
	j := n.jitter.Float64()
	n.jitterMu.Unlock()
	return d/2 + time.Duration(j*float64(d/2))
}

// requeue re-enqueues a tunnel whose rekeyPending flag is still held by
// the backoff path (so it bypasses requestRekey's CAS), observing the
// generation current at fire time.
func (n *Network) requeue(t *tunnel) {
	req := rekeyReq{t, t.gen.Load()}
	n.rekeyQMu.Lock()
	if n.rekeyClosed {
		n.rekeyQMu.Unlock()
		t.rekeyPending.Store(false)
		return
	}
	n.rekeyQ = append(n.rekeyQ, req)
	n.rekeyQMu.Unlock()
	n.rekeyCond.Signal()
}

// negotiateTunnels rolls a set of distinct tunnels over in one batched
// IKE exchange. Each tunnel's rekey lock is held across the batch;
// tunnels whose generation moved past the observed one are skipped
// (the rollover already happened, no key to burn). Returns one error
// per tunnel, nil on success or skip.
func (n *Network) negotiateTunnels(ts []*tunnel, gens []uint64) []error {
	errs := make([]error, len(ts))
	items := make([]ike.BatchItem, 0, len(ts))
	idx := make([]int, 0, len(ts))
	// Lock in tunnel order, not batch order: a worker's batch comes in
	// queue order, and Renegotiate's (after a site restart) can overlap
	// it; taken in different orders, the two would deadlock.
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return ts[a].idx - ts[b].idx })
	for _, i := range order {
		t := ts[i]
		t.rekeyMu.Lock()
		if t.gen.Load() != gens[i] {
			t.rekeyMu.Unlock()
			ts[i] = nil // already rolled over; skip and drop the lock
			continue
		}
		items = append(items, ike.BatchItem{Policy: t.polAB, ReversePolicy: t.polBA.Name})
		idx = append(idx, i)
	}
	if len(items) == 0 {
		return errs
	}
	// Shared ikeMu spans the exchange: a concurrent RestartSite blocks
	// until this batch drains (failing fast once the old daemon stops).
	//lint:lockorder ikeMu is deliberately read-held across the blocking batch negotiation — it is the drain barrier RestartSite's exclusive acquisition waits on
	n.ikeMu.RLock()
	berrs, err := n.A.IKE.NegotiateBatch(items)
	n.ikeMu.RUnlock()
	for k, i := range idx {
		switch {
		case err != nil:
			errs[i] = err
		case berrs[k] != nil:
			errs[i] = berrs[k]
		default:
			ts[i].gen.Add(1)
		}
		ts[i].rekeyMu.Unlock()
	}
	return errs
}

// Renegotiate rolls every tunnel over to fresh SAs ("key rollover"),
// batched rekeyBatch tunnels per IKE exchange.
func (n *Network) Renegotiate() error {
	for lo := 0; lo < len(n.tunnels); lo += n.rekeyBatch {
		hi := lo + n.rekeyBatch
		if hi > len(n.tunnels) {
			hi = len(n.tunnels)
		}
		ts := make([]*tunnel, hi-lo)
		gens := make([]uint64, hi-lo)
		for i, t := range n.tunnels[lo:hi] {
			ts[i], gens[i] = t, t.gen.Load()
		}
		for i, err := range n.negotiateTunnels(ts, gens) {
			if err != nil {
				return fmt.Errorf("vpn: tunnel %q: %w", n.tunnels[lo+i].spec.Name, err)
			}
		}
	}
	return nil
}

// RenegotiateTunnel rolls one tunnel (by TunnelSpec.Name) over.
func (n *Network) RenegotiateTunnel(name string) error {
	for _, t := range n.tunnels {
		if t.spec.Name == name {
			return n.rekeyTunnelFrom(t, t.gen.Load())
		}
	}
	return fmt.Errorf("vpn: no tunnel named %q", name)
}

// rekeyTunnelFrom negotiates fresh SAs for one tunnel, a batch of one,
// unless its generation has already moved past gen — the generation
// the caller observed when it decided a rekey was needed. Concurrent
// callers collapse: exactly one negotiation's key is burned per
// observed expiry, no matter how many flows (or the background
// rekeyer) noticed.
func (n *Network) rekeyTunnelFrom(t *tunnel, gen uint64) error {
	return n.negotiateTunnels([]*tunnel{t}, []uint64{gen})[0]
}

// Close tears the network down.
func (n *Network) Close() {
	n.rekeyQMu.Lock()
	n.rekeyClosed = true
	n.rekeyQMu.Unlock()
	n.rekeyCond.Broadcast()
	// Stop the daemons before waiting out the rekeyer: a background
	// negotiation in flight fails fast on the stopped daemon instead of
	// holding teardown for its timeout.
	n.ikeMu.RLock()
	dA, dB := n.A.IKE, n.B.IKE
	n.ikeMu.RUnlock()
	dA.Stop()
	dB.Stop()
	n.rekeyWG.Wait()
	if n.rekeyCtl != nil {
		n.rekeyCtl.Close()
	}
	if n.authCtl != nil {
		n.authCtl.Close()
	}
	if n.A.KDS != nil {
		n.A.KDS.Close()
	}
	if n.B.KDS != nil {
		n.B.KDS.Close()
	}
}

// Stats are the network's cumulative dataplane and robustness counters.
type Stats struct {
	// Delivered / Dropped count user packets through Send.
	Delivered uint64
	Dropped   uint64
	// RekeyRetries counts failed background rekeys re-queued on the
	// jittered backoff; RekeyAbandoned counts tunnels whose retry
	// budget ran out (left for the next traffic-driven signal).
	RekeyRetries   uint64
	RekeyAbandoned uint64
	// Restarts counts RestartSite crash-recoveries.
	Restarts uint64
}

// Stats reports the network's counters.
func (n *Network) Stats() Stats {
	return Stats{
		Delivered:      n.delivered.Load(),
		Dropped:        n.dropped.Load(),
		RekeyRetries:   n.rekeyRetries.Load(),
		RekeyAbandoned: n.rekeyAbandoned.Load(),
		Restarts:       n.restarts.Load(),
	}
}

// matchTunnel finds the tunnel and direction serving a flow via the
// selector-tuple index — one map probe per selector shape rather than
// a scan over every tunnel, which capped Send throughput near a
// thousand tunnels.
func (n *Network) matchTunnel(p *ipsec.Packet) (t *tunnel, aToB bool) {
	pol := n.flowSPD.Match(p)
	if pol == nil {
		return nil, false
	}
	t = n.byPolicy[pol.Name]
	if t == nil {
		return nil, false
	}
	return t, pol == t.polAB
}

// sendBuf is one send's scratch, pooled across sends: the inner
// packet, the burst of one that carries it through each gateway, and
// the two batches whose arenas hold the sealed and the opened packet.
type sendBuf struct {
	inner   ipsec.Packet
	burst   [1]*ipsec.Packet
	out, in ipsec.Batch
}

var sendBufs = sync.Pool{New: func() any { return new(sendBuf) }}

// newSendBuf takes a pooled sendBuf carrying the user packet.
func newSendBuf(src, dst ipsec.Addr, id uint32, payload []byte) *sendBuf {
	sb := sendBufs.Get().(*sendBuf)
	sb.inner = ipsec.Packet{Src: src, Dst: dst, Proto: ipsec.ProtoPing, ID: id, Payload: payload}
	return sb
}

// release returns sb to the pool without pinning the caller's payload.
func (sb *sendBuf) release() {
	sb.inner.Payload = nil
	sb.burst[0] = nil
	sendBufs.Put(sb)
}

// Send pushes one user packet from src enclave to dst enclave through
// its tunnel and returns the payload as received at the far side, in
// a fresh copy the caller owns. Safe for concurrent use across (and
// within) tunnels.
func (n *Network) Send(src, dst ipsec.Addr, id uint32, payload []byte) ([]byte, error) {
	sb := newSendBuf(src, dst, id, payload)
	defer sb.release()
	_, aToB := n.matchTunnel(&sb.inner)
	return n.send(sb, aToB)
}

// send carries sb's packet through the tunnel direction already
// resolved for it: sealed at the near gateway, past Eve, opened at the
// far one. Both gateways run it as a burst of one in sb's batches, so
// the copy of the delivered payload is the only allocation. On an AES
// tunnel that takes a CPU with AES-NI; without it, crypto/cipher's CTR
// allocates on each side.
func (n *Network) send(sb *sendBuf, aToB bool) ([]byte, error) {
	out, in := n.A.GW, n.B.GW
	if !aToB {
		out, in = n.B.GW, n.A.GW
	}
	sb.burst[0] = &sb.inner
	r := out.ProcessOutboundBatch(&sb.out, sb.burst[:])[0]
	if r.Err != nil {
		n.dropped.Add(1)
		return nil, r.Err
	}
	// Cross the simulated internet, where Eve may interfere.
	outer := r.Pkt
	if n.EveTap != nil {
		var drop bool
		outer, drop = n.EveTap(outer)
		if drop {
			n.dropped.Add(1)
			return nil, errors.New("vpn: packet lost in transit")
		}
	}
	sb.burst[0] = outer
	r = in.ProcessInboundBatch(&sb.in, sb.burst[:])[0]
	if r.Err != nil {
		n.dropped.Add(1)
		return nil, r.Err
	}
	got := r.Pkt
	if got.Src != sb.inner.Src || got.Dst != sb.inner.Dst || got.ID != sb.inner.ID {
		return nil, fmt.Errorf("vpn: decapsulated packet headers corrupted")
	}
	n.delivered.Add(1)
	return append([]byte(nil), got.Payload...), nil
}

// Ping sends A->B and expects delivery; a convenience for tests.
func (n *Network) Ping(id uint32) error {
	_, err := n.Send(HostA, HostB, id, []byte("ping"))
	return err
}

// SendWithRollover sends, and on SA expiry transparently renegotiates
// the flow's tunnel with fresh QKD key and retries — the deployment
// behaviour where "every time the lifetime expires, a new security
// association must be negotiated and it will bring with it fresh key
// material." Concurrent rollovers of one tunnel collapse into a single
// negotiation. Like Send, it returns a fresh copy of the payload.
func (n *Network) SendWithRollover(src, dst ipsec.Addr, id uint32, payload []byte) ([]byte, error) {
	sb := newSendBuf(src, dst, id, payload)
	defer sb.release()
	t, aToB := n.matchTunnel(&sb.inner)
	for round := 0; ; round++ {
		// Observe the tunnel generation before sending: if the send
		// fails on an expired SA, that SA normally belonged to this
		// generation, and the rekey below is void if anyone else has
		// already rolled past it. Not always: a rollover's SAs carry
		// traffic once installed, a little before it bumps the
		// generation, so a busy flow can spend the new SA under the old
		// number and see its rekey skipped as done. The next round then
		// rekeys for real.
		var gen uint64
		if t != nil {
			gen = t.gen.Load()
		}
		got, err := n.send(sb, aToB)
		if err == nil {
			return got, nil
		}
		// ErrUnknownSPI is retryable too: the far side may have retired
		// the generation the packet was sealed under, if rollovers
		// completed between seal and open. The rekey below is then void
		// (the generation moved) and the retry seals under the current
		// SA. Quick mode's commit rules out the other cause: the
		// responder seals under a new SA only once the initiator has
		// installed its inbound side.
		retryable := errors.Is(err, ipsec.ErrNoSA) || errors.Is(err, ipsec.ErrExpired) ||
			errors.Is(err, ipsec.ErrPadExhaust) || errors.Is(err, ipsec.ErrUnknownSPI)
		if t == nil || round == maxRolloverRounds || !retryable {
			return nil, err
		}
		if err := n.rekeyTunnelFrom(t, gen); err != nil {
			return nil, fmt.Errorf("vpn: rollover failed: %w", err)
		}
	}
}

// maxRolloverRounds bounds SendWithRollover's rekeys per packet: one
// for the expiry itself, one more when the first was skipped because a
// concurrent rollover's fresh SA was already spent.
const maxRolloverRounds = 2

// KeyRaceResult summarizes a key consumption/production race (E8).
type KeyRaceResult struct {
	Delivered     uint64
	Rollovers     int
	RolloverFails int
	BitsDistilled uint64
	BitsConsumed  uint64
}

// RunKeyRace interleaves user traffic with QKD distillation for the
// given number of rounds: each round pumps qkdFrames frames of quantum
// transmission and then pushes packets user packets through the tunnel,
// rolling SAs over as they expire. It is the "race between the rate at
// which keying material is put into place and the rate at which it is
// consumed" of Section 2, in miniature.
func (n *Network) RunKeyRace(rounds, qkdFrames, packets, payloadBytes int) (KeyRaceResult, error) {
	var res KeyRaceResult
	if n.Session == nil {
		return res, errors.New("vpn: NoQKD network has no distillation session")
	}
	id := uint32(0)
	for r := 0; r < rounds; r++ {
		if err := n.Session.RunFrames(qkdFrames); err != nil {
			return res, fmt.Errorf("vpn: qkd pump: %w", err)
		}
		for p := 0; p < packets; p++ {
			id++
			_, err := n.Send(HostA, HostB, id, make([]byte, payloadBytes))
			if err == nil {
				res.Delivered++
				continue
			}
			if errors.Is(err, ipsec.ErrNoSA) || errors.Is(err, ipsec.ErrExpired) ||
				errors.Is(err, ipsec.ErrPadExhaust) {
				res.Rollovers++
				if nerr := n.Renegotiate(); nerr != nil {
					res.RolloverFails++
					continue // key starved; traffic drops this round
				}
				if _, err := n.Send(HostA, HostB, id, make([]byte, payloadBytes)); err == nil {
					res.Delivered++
				}
				continue
			}
			return res, err
		}
	}
	am := n.Session.Alice.Metrics()
	res.BitsDistilled = am.DistilledBits
	st := n.A.IKE.Stats()
	res.BitsConsumed = st.QbitsConsumed
	return res, nil
}

// WaitPool blocks until the named site's key supply holds bits or the
// timeout passes.
func WaitPool(pool keypool.Source, bits int, timeout time.Duration) error {
	return ike.WaitAvailable(pool, bits, timeout)
}
