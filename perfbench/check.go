package main

import (
	"fmt"
	"time"

	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/vpn"
)

// siteSnap is one site's counters at an instant.
type siteSnap struct {
	cursor uint64
	avail  int
	kms    kms.Stats
	ike    ike.Stats
	gw     ipsec.Stats
}

// snap is both sites' counters.
type snap struct{ a, b siteSnap }

func takeSite(s *vpn.Site) siteSnap {
	return siteSnap{
		cursor: s.KDS.Cursor(),
		avail:  s.KDS.Available(),
		kms:    s.KDS.Stats(),
		ike:    s.IKE.Stats(),
		gw:     s.GW.Stats(),
	}
}

func takeSnap(st *stack) snap { return snap{a: takeSite(st.net.A), b: takeSite(st.net.B)} }

// checkLedger holds once no exchange is in flight: the mirrored ledgers
// agree, both daemons drew the same key, and on each site every
// deposited bit was claimed, released, or is still available.
func checkLedger(s snap) error {
	if s.a.cursor != s.b.cursor {
		return fmt.Errorf("ledger cursors differ: A %d, B %d", s.a.cursor, s.b.cursor)
	}
	if s.a.kms.DepositedBits != s.b.kms.DepositedBits {
		return fmt.Errorf("deposited bits differ: A %d, B %d", s.a.kms.DepositedBits, s.b.kms.DepositedBits)
	}
	if s.a.ike.QbitsConsumed != s.b.ike.QbitsConsumed {
		return fmt.Errorf("key drawn into SAs differs: A %d, B %d", s.a.ike.QbitsConsumed, s.b.ike.QbitsConsumed)
	}
	for _, site := range []struct {
		name string
		s    siteSnap
	}{{"A", s.a}, {"B", s.b}} {
		k := site.s.kms
		if got := k.ClaimedBits + k.ReleasedBits + uint64(site.s.avail); got != k.DepositedBits {
			return fmt.Errorf("site %s does not conserve key: deposited %d, claimed %d + released %d + available %d",
				site.name, k.DepositedBits, k.ClaimedBits, k.ReleasedBits, site.s.avail)
		}
	}
	return nil
}

// checkCounters holds at every instant: no packet failed integrity or
// replay checks and no IKE message failed authentication.
func checkCounters(s snap) error {
	for _, site := range []struct {
		name string
		s    siteSnap
	}{{"A", s.a}, {"B", s.b}} {
		if g := site.s.gw; g.IntegFailures != 0 || g.ReplayDrops != 0 {
			return fmt.Errorf("site %s gateway: %d integrity failures, %d replay drops", site.name, g.IntegFailures, g.ReplayDrops)
		}
		if n := site.s.ike.AuthFailures; n != 0 {
			return fmt.Errorf("site %s IKE: %d authentication failures", site.name, n)
		}
	}
	return nil
}

// quiesce waits until the ledger checks hold and no phase-2 exchange has
// started for several polls: whatever rekeys the last packets triggered
// have finished on both sides.
func quiesce(st *stack, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last uint64
	stable := 0
	for {
		s := takeSnap(st)
		err := checkLedger(s)
		if err == nil && s.a.ike.Phase2Initiated == last {
			stable++
		} else {
			stable = 0
		}
		last = s.a.ike.Phase2Initiated
		if stable >= 3 {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("phase-2 exchanges still starting after %v", timeout)
			}
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
