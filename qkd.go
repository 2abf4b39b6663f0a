// Package qkd is a from-scratch reproduction of "Quantum Cryptography
// in Practice" (Elliott, Pearson, Troxel; SIGCOMM 2003): the DARPA
// Quantum Network's weak-coherent BB84 link, its QKD protocol suite
// (sifting, Cascade error correction, entropy estimation, privacy
// amplification over GF(2^n), Wegman-Carter authentication), the
// IKE/IPsec VPN integration with QKD-derived keys, and the trusted-
// relay and untrusted-switch network architectures of its Section 8.
//
// The hardware physical layer is substituted by a faithful Monte Carlo
// photonic simulator (see DESIGN.md for the substitution table); every
// protocol layer above it is implemented in full. The simulator runs
// two sampling engines behind one interface: an exact per-pulse path
// (always used when eavesdropper taps, detector dead time, or fiber
// cuts need to see individual pulses) and a batched fast path that
// draws aggregate per-frame click counts and samples only the clicked
// slots — the same distributions, at detection rate instead of pulse
// rate (DESIGN.md section 2).
//
// # Quick start
//
//	session := qkd.NewSession(qkd.DefaultLinkParams(), qkd.Config{}, 0, 42)
//	if err := session.RunUntilDistilled(1024, 1000); err != nil { ... }
//	key, _ := session.Alice.Pool().TryConsume(1024)
//	// session.Bob.Pool() holds the identical 1024 bits.
//
// Higher layers: NewVPN assembles the full Fig. 2 system (two enclaves,
// IPsec gateways, IKE daemons with Qblock KEYMAT, one quantum link);
// NewRelayNetwork and NewOpticalMesh build the Section 8 architectures.
//
// This facade re-exports the library's stable surface; the
// implementation lives under internal/ (one package per subsystem, per
// DESIGN.md's inventory).
package qkd

import (
	"qkd/internal/cascade"
	"qkd/internal/core"
	"qkd/internal/entropy"
	"qkd/internal/eve"
	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/optical"
	"qkd/internal/photonics"
	"qkd/internal/relay"
	"qkd/internal/vpn"
)

// ---------------------------------------------------------------------
// Physical layer
// ---------------------------------------------------------------------

// LinkParams configures the simulated weak-coherent link.
type LinkParams = photonics.Params

// Link is a simulated quantum channel.
type Link = photonics.Link

// DefaultLinkParams returns the paper's operating point: 1 MHz pulses,
// mean photon number 0.1, 10 km of fiber, 6-8 % QBER.
func DefaultLinkParams() LinkParams { return photonics.DefaultParams() }

// NewLink builds a simulated link.
func NewLink(p LinkParams, seed uint64) *Link { return photonics.NewLink(p, seed) }

// TransmitEngine is one physical-layer simulation strategy. Links pick
// automatically: the batched fast path on honest, dead-time-free links,
// and the exact per-pulse Monte Carlo whenever individual pulses must
// be observable (taps, dead time, cut fiber). Link.SetEngine pins one.
type TransmitEngine = photonics.TransmitEngine

// ExactEngine returns the per-pulse Monte Carlo engine.
func ExactEngine() TransmitEngine { return photonics.Exact() }

// BatchedEngine returns the aggregate-count fast-path engine.
func BatchedEngine() TransmitEngine { return photonics.Batched() }

// Attacks on the quantum channel (Section 6).
type (
	// InterceptResend measures and regenerates pulses, inducing 25 %
	// QBER on attacked sifted bits — detectable.
	InterceptResend = eve.InterceptResend
	// Beamsplit steals one photon from multi-photon pulses —
	// transparent, charged by the entropy estimate instead.
	Beamsplit = eve.Beamsplit
)

// NewInterceptResend attacks the given fraction of pulses.
func NewInterceptResend(prob float64, seed uint64) *InterceptResend {
	return eve.NewInterceptResend(prob, seed)
}

// NewBeamsplit builds the PNS attack.
func NewBeamsplit() *Beamsplit { return eve.NewBeamsplit() }

// ---------------------------------------------------------------------
// QKD protocol engine
// ---------------------------------------------------------------------

// Config parameterizes the protocol engines (batch size, error
// corrector, defense function, confidence, PNS accounting).
type Config = core.Config

// Session is a complete simulated link plus Alice/Bob protocol engines.
type Session = core.Session

// Engine metrics snapshot.
type Metrics = core.Metrics

// Corrector selection.
const (
	CorrectorBBN         = core.CorrectorBBN
	CorrectorClassic     = core.CorrectorClassic
	CorrectorBlockParity = core.CorrectorBlockParity
)

// Defense function selection.
const (
	DefenseBennett = entropy.Bennett
	DefenseSlutsky = entropy.Slutsky
)

// PNS accounting policies for weak-coherent transparent leakage.
const (
	PNSReceived    = entropy.PNSReceived
	PNSTransmitted = entropy.PNSTransmitted
)

// NewSession wires a simulated link to an engine pair; frameSlots <= 0
// selects the default frame size.
func NewSession(p LinkParams, cfg Config, frameSlots int, seed uint64) *Session {
	return core.NewSession(p, cfg, frameSlots, seed)
}

// NewAuthenticatedSession is NewSession with Wegman-Carter
// authentication on the public channel, bootstrapped from
// prepositionBits of shared secret per direction.
func NewAuthenticatedSession(p LinkParams, cfg Config, frameSlots int, seed uint64, prepositionBits int) (*Session, error) {
	return core.NewAuthenticatedSession(p, cfg, frameSlots, seed, prepositionBits)
}

// KeyReservoir is the distilled-key FIFO a session deposits into.
// Withdrawals never block: TryConsume and Reserve take all they ask
// for or fail. Consumers that wait for key draw it from a KDS.
type KeyReservoir = keypool.Reservoir

// KeySource and KeyPool are the consumer- and two-sided views of a key
// supply, whose withdrawals never block: satisfied by *KeyReservoir
// and by a KDS's PoolView alike.
type (
	KeySource = keypool.Source
	KeyPool   = keypool.Pool
)

// ---------------------------------------------------------------------
// Key delivery service (KDS)
// ---------------------------------------------------------------------

// KDS is the QoS-aware key delivery service that sits between
// distillation and every consumer: one synchronized ledger carved by
// named key streams into (stream, sequence) block tickets,
// class-priority FIFO scheduling with adaptive admission control, and
// DTN-buffered multi-source aggregation. See DESIGN.md §8.
type (
	KDS       = kms.Service
	KDSConfig = kms.Config
	KDSClass  = kms.Class
	KeyStream = kms.Stream
	KeyTicket = kms.Ticket
	KeyFeed   = kms.Feed
)

// KDS delivery classes, highest priority first.
const (
	KDSClassOTP   = kms.ClassOTP
	KDSClassRekey = kms.ClassRekey
	KDSClassAuth  = kms.ClassAuth
)

// NewKDS builds a key delivery service endpoint. Mirrored endpoints of
// a link must ingest identical deposits in identical order (the same
// contract raw mirrored reservoirs relied on).
func NewKDS(cfg KDSConfig) *KDS { return kms.New(cfg) }

// ErrorCorrector is one interactive reconciliation protocol.
type ErrorCorrector = cascade.Protocol

// NewBBNCascade returns the paper's 64-subset LFSR Cascade variant.
func NewBBNCascade(seed uint64) ErrorCorrector { return cascade.NewBBN(seed) }

// NewClassicCascade returns Brassard-Salvail Cascade.
func NewClassicCascade(estimatedQBER float64, seed uint64) ErrorCorrector {
	return cascade.NewClassic(estimatedQBER, seed)
}

// ---------------------------------------------------------------------
// VPN (Section 7)
// ---------------------------------------------------------------------

// VPNConfig assembles the two-site system of Fig. 2.
type VPNConfig = vpn.Config

// TunnelSpec declares one of a gateway pair's protected tunnels
// (VPNConfig.Tunnels); each carries its own selectors, cipher suite
// and SA lifetime, and Send is safe for concurrent use across them.
type TunnelSpec = vpn.TunnelSpec

// VPN is the assembled network.
type VPN = vpn.Network

// Cipher suites for tunnel policies.
const (
	SuiteAES128CTR = ipsec.SuiteAES128CTR
	Suite3DESCBC   = ipsec.Suite3DESCBC
	SuiteOTP       = ipsec.SuiteOTP
)

// SALifetime bounds a Security Association in seconds and/or bytes.
type SALifetime = ipsec.Lifetime

// IKEConfig tunes the key-agreement daemons.
type IKEConfig = ike.Config

// NewVPN assembles (but does not start) the network; call
// DistillKeys then Establish.
func NewVPN(cfg VPNConfig) (*VPN, error) { return vpn.New(cfg) }

// Well-known test addresses (the paper's 192.1.99.x testbed shape).
var (
	HostA = vpn.HostA
	HostB = vpn.HostB
)

// ---------------------------------------------------------------------
// QKD networks (Section 8)
// ---------------------------------------------------------------------

// RelayNetwork is a trusted-relay key-transport mesh.
type RelayNetwork = relay.Network

// NewRelayNetwork returns an empty mesh.
func NewRelayNetwork(seed uint64) *RelayNetwork { return relay.NewNetwork(seed) }

// NewRelayFullMesh links every node pair (N(N-1)/2 links).
func NewRelayFullMesh(seed uint64, rateBits int, names ...string) *RelayNetwork {
	return relay.FullMesh(seed, rateBits, names...)
}

// NewRelayStar links every leaf to a hub (N links).
func NewRelayStar(seed uint64, rateBits int, hub string, leaves ...string) *RelayNetwork {
	return relay.Star(seed, rateBits, hub, leaves...)
}

// OpticalMesh is an untrusted photonic-switch fabric.
type OpticalMesh = optical.Mesh

// NewOpticalMesh returns an empty fabric.
func NewOpticalMesh() *OpticalMesh { return optical.NewMesh() }
