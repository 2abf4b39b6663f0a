package main

import (
	"fmt"

	"qkd/internal/ipsec"
	"qkd/internal/rng"
	"qkd/internal/vpn"
	"qkd/internal/workload"
)

type distillMode int

const (
	distillNone    distillMode = iota
	distillUnpaced             // frames back to back: key supply as fast as the engines go
	distillPaced               // frames at the link's real-time rate
)

// pkt is one user packet of a plan: its tunnel, direction, payload size
// and offset into the plan's payload buffer.
type pkt struct {
	tunnel int32
	aToB   bool
	size   int32
	off    int32
}

// plan is a workload's inputs, all derived from the seed: the tunnel
// set, the packet sequence the sender cycles through, and how key is
// supplied.
type plan struct {
	specs   []vpn.TunnelSpec
	hosts   [][2]ipsec.Addr // per tunnel: a host behind A, one behind B
	pkts    []pkt
	payload []byte
	distill distillMode
	// precharge is synthetic key charged into both KDS before
	// establishment; establishBits is distilled key to accumulate first.
	precharge     int
	establishBits int
	// topUp, when set, is synthetic key the sender charges whenever site
	// A's KDS holds less than that: supply stays ahead of demand without
	// a backlog so large that the ledger's upkeep dominates.
	topUp int
}

// Workload sizing. otp-keyrace spends 2*otpBits of key per SA pair, so
// at ~450 kbit/s of distilled key a 10 s run installs well over 1000
// pairs. aes-dataplane's byte lifetime yields a rekey every 192 KiB per
// direction: over 1000 per run at the dataplane's rate, and its
// pre-charge covers several times that demand. rekey-storm's 8 KiB
// lifetime on 80-byte inner packets rekeys every tunnel within one
// round-robin pass every ~90 passes: a storm of 1024 rekeys about twice
// a second.
const (
	otpTunnels   = 1
	otpBits      = 1024
	otpMinBytes  = 24
	otpMaxBytes  = 72
	aesTunnels   = 64
	aesLifeBytes = 192 << 10
	aesPrecharge = 12 << 20
	stormTunnels = 1024
	stormLife    = 8 << 10
	stormBytes   = 64
	stormTopUp   = 4 << 20
	planPackets  = 1 << 16
	payloadBytes = 64 << 10
)

var workloads = map[string]func(seed uint64) *plan{
	"otp-keyrace":   otpKeyrace,
	"aes-dataplane": aesDataplane,
	"rekey-storm":   rekeyStorm,
}

// tunnelAddrs gives tunnel i the enclave prefixes 10.x.y.0/24 (A) and
// 172.(16+x).y.0/24 (B), with x.y = i.
func tunnelAddrs(i int) (pa, pb ipsec.Prefix, ha, hb ipsec.Addr) {
	x, y := byte(i>>8), byte(i)
	pa = ipsec.Prefix{Addr: ipsec.Addr{10, x, y, 0}, Bits: 24}
	pb = ipsec.Prefix{Addr: ipsec.Addr{172, 16 + x, y, 0}, Bits: 24}
	return pa, pb, ipsec.Addr{10, x, y, 5}, ipsec.Addr{172, 16 + x, y, 9}
}

func newPlan(seed uint64, tunnels int, spec func(i int) vpn.TunnelSpec) *plan {
	p := &plan{payload: rng.NewSplitMix64(seed ^ 0x9A71_0AD5).Bits(8 * payloadBytes).Bytes()}
	for i := 0; i < tunnels; i++ {
		pa, pb, ha, hb := tunnelAddrs(i)
		s := spec(i)
		s.Name, s.PrefixA, s.PrefixB = fmt.Sprintf("t%d", i), pa, pb
		p.specs = append(p.specs, s)
		p.hosts = append(p.hosts, [2]ipsec.Addr{ha, hb})
	}
	return p
}

// payloadOff picks a seeded offset with room for size bytes.
func payloadOff(r *rng.SplitMix64, size int) int32 {
	return int32(r.Intn(payloadBytes - size))
}

// otpKeyrace: small packets in both directions over one OTP tunnel, so
// every SA's pad is spent within a couple of packets and the sender
// waits on distillation for the next. With several tunnels their
// rollovers queued behind each other in the daemon's one-at-a-time
// phase 2, and the tail latencies swung by a third between runs.
func otpKeyrace(seed uint64) *plan {
	p := newPlan(seed, otpTunnels, func(int) vpn.TunnelSpec {
		return vpn.TunnelSpec{Suite: ipsec.SuiteOTP, OTPBits: otpBits}
	})
	r := rng.NewSplitMix64(seed ^ 0x07B)
	for i := 0; i < planPackets; i++ {
		size := otpMinBytes + r.Intn(otpMaxBytes-otpMinBytes+1)
		p.pkts = append(p.pkts, pkt{tunnel: int32(r.Intn(otpTunnels)), aToB: r.Intn(2) == 0, size: int32(size), off: payloadOff(r, size)})
	}
	p.distill = distillUnpaced
	p.establishBits = otpTunnels * 2 * otpBits
	return p
}

// aesDataplane: the DimDim-shaped trace of internal/workload (on/off
// conferencing and bulk flows, heavy-tailed sizes) over 64 AES tunnels.
func aesDataplane(seed uint64) *plan {
	p := newPlan(seed, aesTunnels, func(int) vpn.TunnelSpec {
		return vpn.TunnelSpec{Suite: ipsec.SuiteAES128CTR, Life: ipsec.Lifetime{Bytes: aesLifeBytes}}
	})
	gen := workload.New(workload.Config{Seed: seed, Tunnels: aesTunnels})
	r := rng.NewSplitMix64(seed ^ 0xAE5)
	var buf []workload.Packet
	for len(p.pkts) < planPackets {
		buf = gen.Tick(buf[:0])
		for _, w := range buf {
			p.pkts = append(p.pkts, pkt{tunnel: int32(w.Tunnel), aToB: r.Intn(2) == 0, size: int32(w.Bytes), off: payloadOff(r, w.Bytes)})
		}
	}
	p.distill = distillPaced
	p.precharge = aesPrecharge
	return p
}

// rekeyStorm: 64-byte packets round-robin over 1024 short-lived AES
// tunnels, in a seeded tunnel order with seeded lifetimes.
func rekeyStorm(seed uint64) *plan {
	r := rng.NewSplitMix64(seed ^ 0x5702)
	p := newPlan(seed, stormTunnels, func(int) vpn.TunnelSpec {
		return vpn.TunnelSpec{Suite: ipsec.SuiteAES128CTR, Life: ipsec.Lifetime{Bytes: stormLife}}
	})
	order := make([]int, stormTunnels)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, t := range order {
		p.pkts = append(p.pkts, pkt{tunnel: int32(t), aToB: true, size: stormBytes, off: payloadOff(r, stormBytes)})
	}
	p.precharge = stormTunnels*1024 + stormTopUp
	p.topUp = stormTopUp
	return p
}
