package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"time"

	"qkd/internal/chaos"
	"qkd/internal/core"
	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/qnet"
	"qkd/internal/relay"
	"qkd/internal/vpn"
	"qkd/internal/workload"
)

// E17ChaosSoak is the robustness gate: a trace-shaped workload (bursty
// mixed conferencing/bulk flows, heavy-tailed sizes, diurnal swell,
// flash crowds) drives an 8-tunnel QKD-keyed VPN whose soak-time key
// arrives over a 3-relay striped QNet mesh, while a seeded fault
// schedule composes fiber cuts, an Eve eavesdrop storm, a relay
// compromise, a KDS overload pulse, and a gateway crash-restart in the
// middle of the rollover churn.
//
// The experiment passes only if the end-to-end SLOs hold through the
// chaos: delivered-packet p99 latency within budget, zero replayed
// ciphertexts accepted, zero cross-tunnel payload leakage, and key
// starvation bounded — every tunnel back on fresh SAs within the
// recovery deadline once the faults clear. The same seed reproduces
// the same fault schedule, tick for tick.
func E17ChaosSoak(seed uint64, quick bool) (*Report, error) {
	r := &Report{
		ID:    "E17",
		Title: "chaos soak: trace-shaped workload x seeded fault schedule, SLO-gated",
		Paper: "\"the DARPA Quantum Network will be continuously operational\" (Sec. 1); resilience via \"a mesh of trusted relays\" and per-lifetime rekeying (Secs. 5, 7)",
	}

	const (
		tunnels   = 8
		relays    = 3 // 2 stripes + 1 disjoint spare
		linkRate  = 1 << 14
		pumpBits  = 2048
		lifeBytes = 64 << 10 // SA rollover roughly every 46 full-MTU packets
		p99SLO    = 50 * time.Millisecond
	)
	horizon := 192
	if quick {
		horizon = 96
	}

	// --- The fault schedule: seeded, deterministic, non-overlapping
	// within each fault kind. ---
	ccfg := chaos.Config{
		Seed:    seed,
		Horizon: horizon,
		Counts: map[chaos.Kind]int{
			chaos.FiberCut:        2,
			chaos.EveStorm:        1,
			chaos.RelayCompromise: 1,
			chaos.KDSOverload:     1,
			chaos.GatewayRestart:  1,
		},
		Targets: map[chaos.Kind]int{
			chaos.FiberCut:        relays,
			chaos.EveStorm:        relays,
			chaos.RelayCompromise: relays,
		},
	}
	sched := chaos.Plan(ccfg)
	if !reflect.DeepEqual(sched, chaos.Plan(ccfg)) {
		return r, fmt.Errorf("E17: fault schedule is not deterministic for seed %d", seed)
	}
	r.Rowf("schedule: seed %d, horizon %d ticks, %d events (%d fiber cuts, %d eve storm, %d relay compromise, %d kds pulse, %d restart) — same seed, same schedule",
		seed, horizon, len(sched),
		sched.Count(chaos.FiberCut), sched.Count(chaos.EveStorm),
		sched.Count(chaos.RelayCompromise), sched.Count(chaos.KDSOverload),
		sched.Count(chaos.GatewayRestart))

	// --- The fabric: two gateways joined by a 3-relay striped mesh for
	// soak-time key, 8 AES tunnels under byte lifetimes so the workload
	// itself keeps rollovers continuously in flight. ---
	rn := relay.NewNetwork(seed ^ 0xE17)
	rn.AddNode("gwA")
	rn.AddNode("gwB")
	for i := 0; i < relays; i++ {
		rel := fmt.Sprintf("r%d", i)
		rn.AddNode(rel)
		if _, err := rn.AddLink("gwA", rel, linkRate); err != nil {
			return r, err
		}
		if _, err := rn.AddLink(rel, "gwB", linkRate); err != nil {
			return r, err
		}
	}
	qn := qnet.NewNetwork(qnet.Config{Seed: seed ^ 0x9E17})
	qn.RegisterRelay(rn)
	qn.Tick()

	specs := make([]vpn.TunnelSpec, tunnels)
	for i := range specs {
		specs[i] = vpn.TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   ipsec.SuiteAES128CTR,
			Life:    ipsec.Lifetime{Bytes: lifeBytes},
		}
	}
	n, err := vpn.New(vpn.Config{
		Photonics: labParams(),
		QKD:       core.Config{BatchBits: 2048},
		Tunnels:   specs,
		QNet:      qn,
		QNetSrc:   "gwA",
		QNetDst:   "gwB",
		IKE:       ike.Config{Phase2Timeout: 5 * time.Second},
		Seed:      seed,
	})
	if err != nil {
		return r, err
	}
	defer n.Close()
	if err := n.DistillKeys(24*1024, 1500); err != nil {
		return r, err
	}
	if err := n.Establish(); err != nil {
		return r, err
	}

	// --- Fault hooks. Faults of different kinds may overlap on one
	// link, so restores are refcounted: a link comes back only when its
	// last outstanding fault ends. ---
	linkFaults := map[[2]string]int{}
	breakLink := func(a, b string, eavesdrop bool) {
		if linkFaults[[2]string{a, b}]++; linkFaults[[2]string{a, b}] > 1 {
			return
		}
		if eavesdrop {
			_ = rn.Eavesdrop(a, b)
		} else {
			_ = rn.Cut(a, b)
		}
	}
	healLink := func(a, b string) {
		if linkFaults[[2]string{a, b}]--; linkFaults[[2]string{a, b}] > 0 {
			return
		}
		_ = rn.Restore(a, b)
	}
	relName := func(e chaos.Event) string { return fmt.Sprintf("r%d", e.Target) }

	var (
		restartErr   error
		overloadOff  chan struct{}
		overloadSt   *kms.Stream
		maxPressure  float64
		restartsDone int
	)
	inj := chaos.NewInjector(sched)
	inj.On(chaos.FiberCut,
		func(e chaos.Event) { breakLink("gwA", relName(e), false) },
		func(e chaos.Event) { healLink("gwA", relName(e)) })
	inj.On(chaos.EveStorm,
		func(e chaos.Event) { breakLink(relName(e), "gwB", true) },
		func(e chaos.Event) { healLink(relName(e), "gwB") })
	inj.On(chaos.RelayCompromise,
		// An adversary owning the relay sees both of its links; the
		// whole site drops out of the mesh until re-keyed.
		func(e chaos.Event) { breakLink("gwA", relName(e), true); breakLink(relName(e), "gwB", true) },
		func(e chaos.Event) { healLink("gwA", relName(e)); healLink(relName(e), "gwB") })
	inj.On(chaos.KDSOverload,
		func(chaos.Event) {
			// A pad-hungry bulk consumer swamps the scheduler: a huge
			// OTP-class demand queues (never shed) ahead of the rekey
			// class while the pump is down, so rekey requests see the
			// degraded/shed machinery instead of infinite patience.
			overloadOff = make(chan struct{})
			overloadSt, _ = n.A.KDS.NewStream("chaos-bulk", 8192, kms.ClassOTP)
			st, off := overloadSt, overloadOff
			go func() {
				if tk, err := st.AllocateWait(64, time.Hour, off); err == nil {
					st.Release(tk) // pulse got covered: hand the ledger back
				}
			}()
			// The waiter enqueues from its own goroutine; a quick-mode
			// tick can outrun the scheduler and end the pulse before the
			// demand ever lands. Hold the injector until the backlog is
			// visible so the pulse spans its full scheduled duration.
			for i := 0; i < 2000 && n.A.KDS.Pressure() == 0; i++ {
				time.Sleep(50 * time.Microsecond)
			}
		},
		func(chaos.Event) {
			close(overloadOff)
			overloadOff = nil
		})
	inj.On(chaos.GatewayRestart,
		func(chaos.Event) {
			// Crash-restart gateway B mid-rollover. A restart colliding
			// with the overload pulse can starve its renegotiation;
			// one synthetic top-up mirrors an operator forcing key in.
			if err := n.RestartSite('B'); err != nil {
				n.ChargeSynthetic(128 * 1024)
				restartErr = n.RestartSite('B')
			}
			restartsDone++
		}, nil)

	// --- The soak. ---
	gen := workload.New(workload.Config{Seed: seed, Tunnels: tunnels})
	type capture struct {
		pkt    ipsec.Packet
		tunnel int
	}
	var (
		taps     []capture
		offered  int
		majorDel int
		dropped  int
		lats     []float64
		leaks    int
		replayAc int
		pumpFail int
		pkts     []workload.Packet
	)
	// Every 64th sealed ciphertext on the wire is recorded by Eve for
	// re-injection at the end of the tick.
	tapEvery, tapN := 64, 0
	n.EveTap = func(p *ipsec.Packet) (*ipsec.Packet, bool) {
		if p.Proto == ipsec.ProtoESP {
			if tapN++; tapN%tapEvery == 0 {
				cp := *p
				cp.Payload = append([]byte(nil), p.Payload...)
				taps = append(taps, capture{pkt: cp})
			}
		}
		return p, false
	}

	for tick := 0; tick <= horizon; tick++ {
		inj.Advance(tick)
		qn.Tick()
		if !inj.Active(chaos.KDSOverload) {
			if err := n.PumpQNet(pumpBits); err != nil {
				pumpFail++
			}
		}
		if p := n.A.KDS.Pressure(); p > maxPressure {
			maxPressure = p
		}
		pkts = gen.Tick(pkts[:0])
		for _, wp := range pkts {
			src := ipsec.Addr{10, 1, byte(wp.Tunnel), 5}
			dst := ipsec.Addr{10, 2, byte(wp.Tunnel), 9}
			want := bytes.Repeat([]byte{byte(0xA0 + wp.Tunnel)}, wp.Bytes)
			offered++
			start := wallNow()
			got, err := n.Send(src, dst, uint32(offered), want)
			if err != nil {
				dropped++ // no-SA gap while a rekey is in flight: the SLO ledger records it
				continue
			}
			lats = append(lats, float64(wallSince(start).Microseconds())/1000)
			if !bytes.Equal(got, want) {
				leaks++
			}
			majorDel++
		}
		// Eve replays this tick's captures straight at gateway B.
		for _, c := range taps {
			pkt := c.pkt
			if _, err := n.B.GW.ProcessInbound(&pkt); err == nil {
				replayAc++
			}
		}
		taps = taps[:0]
	}
	inj.Advance(horizon + horizon/10 + 2) // flush any tail-end fault ends
	if !inj.Done() {
		return r, fmt.Errorf("E17: injector did not drain the schedule")
	}
	if restartErr != nil {
		return r, fmt.Errorf("E17: gateway restart never recovered: %w", restartErr)
	}

	// --- Bounded starvation: with the faults cleared, every tunnel must
	// return to fresh SAs within the recovery deadline. ---
	recoverStart := wallNow()
	deadline := recoverStart.Add(60 * time.Second)
	for i := 0; i < tunnels; i++ {
		src := ipsec.Addr{10, 1, byte(i), 5}
		dst := ipsec.Addr{10, 2, byte(i), 9}
		want := bytes.Repeat([]byte{byte(0xA0 + i)}, 256)
		for {
			got, err := n.SendWithRollover(src, dst, 1<<20+uint32(i), want)
			if err == nil {
				if !bytes.Equal(got, want) {
					leaks++
				}
				break
			}
			if wallNow().After(deadline) {
				return r, fmt.Errorf("E17: tunnel %d starved past the recovery deadline: %w", i, err)
			}
			qn.Tick()
			if perr := n.PumpQNet(pumpBits); perr != nil {
				pumpFail++
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	recoverT := wallSince(recoverStart)

	// --- SLO gates. ---
	sort.Float64s(lats)
	p50 := workload.Quantile(lats, 0.50)
	p99 := workload.Quantile(lats, 0.99)
	wpkts, wbytes := gen.Totals()
	st := n.Stats()
	gst := n.B.GW.Stats()

	r.Rowf("workload: %d conferencing + %d bulk packets (%d KiB total) over %d ticks; %d offered to the fabric, %d delivered, %d dropped in no-SA gaps",
		wpkts[workload.Conferencing], wpkts[workload.Bulk],
		(wbytes[0]+wbytes[1])/1024, horizon+1, offered, majorDel, dropped)
	r.Rowf("chaos: %d failed pump rounds while the mesh was cut/eavesdropped; peak KDS pressure %.2f during the overload pulse; %d gateway restart(s), %d rekey backoff retries, %d abandoned",
		pumpFail, maxPressure, st.Restarts, st.RekeyRetries, st.RekeyAbandoned)
	r.Rowf("SLOs: delivered p50 %.3fms, p99 %.3fms (budget %v); replayed ciphertexts accepted %d of %d injected (replay drops %d); cross-tunnel payload leaks %d; all %d tunnels recovered in %v",
		p50, p99, p99SLO, replayAc, tapN/tapEvery, gst.ReplayDrops, leaks, tunnels, recoverT.Round(time.Millisecond))

	if majorDel == 0 {
		return r, fmt.Errorf("E17: nothing delivered")
	}
	if d := time.Duration(p99 * float64(time.Millisecond)); d > p99SLO {
		return r, fmt.Errorf("E17: delivered p99 %.3fms breaches the %v SLO", p99, p99SLO)
	}
	if replayAc != 0 {
		return r, fmt.Errorf("E17: %d replayed ciphertexts accepted", replayAc)
	}
	if leaks != 0 {
		return r, fmt.Errorf("E17: %d cross-tunnel payload leaks", leaks)
	}
	if restartsDone == 0 || st.Restarts == 0 {
		return r, fmt.Errorf("E17: the schedule never restarted a gateway")
	}
	if maxPressure <= 0 {
		return r, fmt.Errorf("E17: the KDS overload pulse produced no pressure signal")
	}
	r.Rowf("result: SLOs hold through %d composed faults — the fabric degrades (drops, retries, parked stripes) but never breaks a security invariant",
		len(sched))
	return r, nil
}
