package vpn

import (
	"fmt"

	"qkd/internal/channel"
	"qkd/internal/ike"
)

// RestartSite crash-restarts one gateway ('A' or 'B') and resynchronizes
// the network, the recovery path a deployed gateway needs after a power
// cycle mid-rollover:
//
//  1. Both IKE daemons stop — the control channel between them died
//     with the crashed peer. In-flight negotiations fail fast; a
//     responder holding half-claimed tickets releases them, so both
//     sites' ledgers burn identical ranges.
//  2. In-flight rekey batches drain: negotiation paths hold the
//     control-plane lock shared for their whole exchange, so acquiring
//     it exclusively here is the drain barrier.
//  3. The crashed side's SAD is reset — kernel SA state does not
//     survive a reboot. The surviving side keeps its SAs; they are
//     superseded through the normal generation chains as fresh SAs
//     install, never leaking.
//  4. Fresh daemons (fresh entropy — a rebooted racoon does not replay
//     its old SPI sequence) run Phase 1 over a new channel.
//  5. Every tunnel renegotiates. Key comes from new ledger tickets; the
//     surviving side's ticket cursor re-converges by following the
//     initiator's fresh tickets, so nothing is double-burned.
//
// Safe to call while traffic and background rekeys are in flight; not
// safe concurrently with Close or another RestartSite.
func (n *Network) RestartSite(side byte) error {
	if side != 'A' && side != 'B' {
		return fmt.Errorf("vpn: unknown site %q (want 'A' or 'B')", side)
	}
	n.ikeMu.RLock()
	oldA, oldB := n.A.IKE, n.B.IKE
	n.ikeMu.RUnlock()
	oldA.Stop()
	oldB.Stop()

	//lint:lockorder ikeMu is write-held across the bounded daemon start handshake so no tunnel ever observes a half-swapped daemon pair; RestartSite is documented as not concurrent with Close or itself
	n.ikeMu.Lock()
	if side == 'A' {
		n.A.GW.SAD.Reset()
	} else {
		n.B.GW.SAD.Reset()
	}
	gen := n.restarts.Add(1)
	cfgA, cfgB := n.ikeCfgA, n.ikeCfgB
	cfgA.Seed ^= 0x9E3779B97F4A7C15 * gen
	cfgB.Seed ^= 0xC2B2AE3D27D4EB4F * gen
	connA, connB := channel.MemPair(64)
	dA := ike.NewDaemon(ike.Initiator, connA, n.A.GW, n.qbA, n.otpA, vpnPSK, cfgA, n.ikeLogA)
	dB := ike.NewDaemon(ike.Responder, connB, n.B.GW, n.qbB, n.otpB, vpnPSK, cfgB, n.ikeLogB)
	errCh := make(chan error, 1)
	go func() { errCh <- dB.Start() }()
	err := dA.Start()
	if rerr := <-errCh; err == nil {
		err = rerr
	}
	if err != nil {
		n.ikeMu.Unlock()
		return fmt.Errorf("vpn: restart phase 1: %w", err)
	}
	n.A.IKE, n.B.IKE = dA, dB
	// Old failures died with the old daemons; retry from a clean slate.
	for _, t := range n.tunnels {
		t.fails.Store(0)
	}
	n.ikeMu.Unlock()

	if err := n.Renegotiate(); err != nil {
		return fmt.Errorf("vpn: post-restart renegotiation: %w", err)
	}
	return nil
}
