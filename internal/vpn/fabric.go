package vpn

import (
	"fmt"
	"sync"

	"qkd/internal/ike"
	"qkd/internal/ipsec"
)

// FabricConfig sizes a gateway fabric: Pairs independent gateway pairs
// (each its own Network — separate SPDs, SADs, IKE daemons, and key
// delivery services), TunnelsPerPair tunnels on each.
type FabricConfig struct {
	// Pairs is the number of gateway pairs (default 1).
	Pairs int
	// TunnelsPerPair is the tunnel count per pair (default 1024, max
	// 65536 — the fabric's /24 addressing plan per pair).
	TunnelsPerPair int
	// OTPEvery makes every k-th tunnel a one-time-pad tunnel (0 = all
	// conventional). The rest use AES-128-CTR.
	OTPEvery int
	// OTPBits is the per-direction pad size for OTP tunnels (default
	// 16384 bits).
	OTPBits int
	// Life bounds every tunnel's SAs — the storm lever: a byte budget
	// all tunnels chew through together synchronizes their expiry.
	Life ipsec.Lifetime
	// IKE configures all daemons.
	IKE ike.Config
	// RekeyWorkers / RekeyBatch tune each pair's coalescing rekeyer.
	RekeyWorkers int
	RekeyBatch   int
	// Seed drives deterministic key and nonce generation.
	Seed uint64
}

// Fabric is an O(100k)-tunnel deployment: many gateway pairs, each a
// NoQKD Network whose key arrives synthetically through its KDS. The
// paper's single testbed pair scales out by replication — gateway
// pairs share nothing, so the fabric's aggregate tunnel count is
// bounded by memory, not by contention on any global structure.
type Fabric struct {
	Nets []*Network
	cfg  FabricConfig
}

// fabricSpecs builds one pair's tunnel specs: tunnel t covers
// 10.x.y.0/24 <-> 11.x.y.0/24 with x:y the 16-bit tunnel index.
func fabricSpecs(cfg FabricConfig) []TunnelSpec {
	specs := make([]TunnelSpec, cfg.TunnelsPerPair)
	for t := range specs {
		suite := ipsec.SuiteAES128CTR
		if cfg.OTPEvery > 0 && t%cfg.OTPEvery == cfg.OTPEvery-1 {
			suite = ipsec.SuiteOTP
		}
		hi, lo := byte(t>>8), byte(t)
		specs[t] = TunnelSpec{
			Name:    fmt.Sprintf("ft%d", t),
			PrefixA: ipsec.Prefix{Addr: ipsec.Addr{10, hi, lo, 0}, Bits: 24},
			PrefixB: ipsec.Prefix{Addr: ipsec.Addr{11, hi, lo, 0}, Bits: 24},
			Suite:   suite,
			Life:    cfg.Life,
			OTPBits: cfg.OTPBits,
		}
	}
	return specs
}

// NewFabric assembles the fabric (no tunnels up yet; charge key with
// ChargeKey and call Establish).
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	if cfg.TunnelsPerPair <= 0 {
		cfg.TunnelsPerPair = 1024
	}
	if cfg.TunnelsPerPair > 1<<16 {
		return nil, fmt.Errorf("vpn: %d tunnels per pair exceeds the fabric addressing plan (%d)",
			cfg.TunnelsPerPair, 1<<16)
	}
	if cfg.OTPBits <= 0 {
		cfg.OTPBits = 16384
	}
	f := &Fabric{cfg: cfg}
	specs := fabricSpecs(cfg)
	for p := 0; p < cfg.Pairs; p++ {
		n, err := New(Config{
			NoQKD:        true,
			Tunnels:      specs,
			IKE:          cfg.IKE,
			OTPBits:      cfg.OTPBits,
			RekeyWorkers: cfg.RekeyWorkers,
			RekeyBatch:   cfg.RekeyBatch,
			Seed:         cfg.Seed ^ uint64(p+1)*0x5F4A,
		})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("vpn: fabric pair %d: %w", p, err)
		}
		f.Nets = append(f.Nets, n)
	}
	return f, nil
}

// KeyBitsPerRollover returns the key demand of one fabric-wide
// rollover: every conventional tunnel burns its Qblocks, every OTP
// tunnel two pads rounded up to the delivery stream's block size.
func (f *Fabric) KeyBitsPerRollover() int {
	qblocks := f.cfg.IKE.Qblocks
	if qblocks == 0 {
		qblocks = 1
	}
	otpBlock := 1024 // the "ike/otp" stream's block size
	padBits := 2 * f.cfg.OTPBits
	padBits = (padBits + otpBlock - 1) / otpBlock * otpBlock
	total := 0
	for t := 0; t < f.cfg.TunnelsPerPair; t++ {
		if f.cfg.OTPEvery > 0 && t%f.cfg.OTPEvery == f.cfg.OTPEvery-1 {
			total += padBits
		} else {
			total += qblocks * ike.QblockBits
		}
	}
	return total
}

// ChargeKey synthesizes `bits` of key into every pair's mirrored
// delivery services.
func (f *Fabric) ChargeKey(bits int) {
	for _, n := range f.Nets {
		n.ChargeSynthetic(bits)
	}
}

// Establish brings every pair up concurrently; within a pair, tunnels
// come up in batched IKE exchanges.
func (f *Fabric) Establish() error {
	errs := make([]error, len(f.Nets))
	var wg sync.WaitGroup
	for i, n := range f.Nets {
		wg.Add(1)
		go func(i int, n *Network) {
			defer wg.Done()
			errs[i] = n.Establish()
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("vpn: fabric pair %d: %w", i, err)
		}
	}
	return nil
}

// Tunnels returns the fabric's total tunnel count.
func (f *Fabric) Tunnels() int { return len(f.Nets) * f.cfg.TunnelsPerPair }

// Close tears every pair down.
func (f *Fabric) Close() {
	for _, n := range f.Nets {
		n.Close()
	}
}
