package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qkd/internal/flow"
	"qkd/internal/ike"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
	"qkd/internal/rng"
	"qkd/internal/vpn"
)

// E18FlowControl closes the loop E13 left open. There the key delivery
// service defended itself alone: open-loop consumers dumped their full
// appetite into the scheduler and the KDS shed what a class's horizon
// could not absorb. Here the same overload (tens of times the link's
// delivery rate, concentrated in the rekey class) runs twice against
// identical supply — once open-loop, once with internal/flow credit
// controllers pacing every consumer off the ECN-style pressure signal,
// plus a LEDBAT-style background controller replenishing auth pads
// only when foreground demand is quiet.
//
// Gated, flow-controlled vs the side-by-side baseline: no high-class
// starvation, Jain fairness >= 0.9 within each class, per-class p99
// scheduler wait strictly below open-loop, and a demonstrable
// background yield (auth throughput collapses while foreground OTP
// demand is registered, recovers after). A second act threads the same
// loop through the VPN stack: a soft-expiry rekey storm against a
// starved KDS, where the rekeyer's controller must mark, shrink its
// batch window, and drain the storm in spaced bites once key returns.
func E18FlowControl(seed uint64, quick bool) (*Report, error) {
	r := &Report{
		ID:    "E18",
		Title: "closed-loop key replenishment: credit-controlled classes vs open-loop shedding",
		Paper: "\"the crux ... is whether the resulting key material is sufficiently rapid to support the offered traffic load\" (Sec. 2); many-consumer key sharing (Sec. 8)",
	}

	// Three wall segments per phase: background-only warmup, the
	// foreground overload burst, background-only recovery. Each wall
	// millisecond carries one virtual second of a 1 kbit/s-class link.
	seg1, seg2, seg3 := 120*time.Millisecond, 400*time.Millisecond, 120*time.Millisecond
	if quick {
		seg1, seg2, seg3 = 80*time.Millisecond, 280*time.Millisecond, 80*time.Millisecond
	}
	const (
		tickBits    = 1024
		otpUsers    = 8
		rekeyUsers  = 32
		authUsers   = 8
		otpBlock    = 512
		otpBlocks   = 4 // open-loop per-round burst, in blocks
		otpCap      = 1 // flow-controlled per-request bite, in blocks
		otpEvery    = 32 * time.Millisecond
		rekeyBlock  = 1024
		rekeyBlocks = 8 // open-loop per-round burst: dumps the full appetite
		rekeyCap    = 2 // flow-controlled per-request bite, in blocks
		rekeyEvery  = 3 * time.Millisecond
		authChunk   = 1024 // open-loop per-round burst
		authCap     = 512  // flow-controlled per-request bite
		bgFloor     = 64
	)
	kcfg := kms.Config{ShedDelay: 30 * time.Millisecond}

	type phaseRes struct {
		mu         sync.Mutex
		offered    [kms.NumClasses]int64
		served     [kms.NumClasses]int64
		servedBits [kms.NumClasses]int64
		shed       [kms.NumClasses]int64
		timedOut   [kms.NumClasses]int64
		waits      [kms.NumClasses][]time.Duration
		otpWins    []int
		rekeyWins  []int
		authWins   []int
		bgBits     [3]int64
		bgDur      [3]time.Duration
		deposited  int64
		maxPress   float64
		maxDemand  int64
		ctl        flow.Stats // aggregated foreground controllers
		yields     uint64     // background controllers
		wall       time.Duration
	}

	// runPhase drives one full open- or closed-loop pass against a
	// fresh service. One endpoint suffices: E13 already pins the
	// mirrored two-endpoint ledger agreement; this experiment is about
	// the control loop in front of it.
	runPhase := func(flowOn bool) (*phaseRes, error) {
		ph := &phaseRes{
			otpWins:   make([]int, otpUsers),
			rekeyWins: make([]int, rekeyUsers),
			authWins:  make([]int, authUsers),
		}
		kds := kms.New(kcfg)
		defer kds.Close()
		feed, err := kds.AttachSource("qkd-link")
		if err != nil {
			return nil, err
		}
		otpSt := make([]*kms.Stream, otpUsers)
		for i := range otpSt {
			if otpSt[i], err = kds.NewStream(fmt.Sprintf("otp/%02d", i), otpBlock, kms.ClassOTP); err != nil {
				return nil, err
			}
		}
		rekeySt := make([]*kms.Stream, rekeyUsers)
		for i := range rekeySt {
			if rekeySt[i], err = kds.NewStream(fmt.Sprintf("rekey/%02d", i), rekeyBlock, kms.ClassRekey); err != nil {
				return nil, err
			}
		}
		authView := kds.PoolView(kms.ClassAuth)

		rec := func(c kms.Class, bits int, wait time.Duration, err error) {
			ph.mu.Lock()
			defer ph.mu.Unlock()
			ph.offered[c] += int64(bits)
			switch {
			case err == nil:
				ph.served[c]++
				ph.servedBits[c] += int64(bits)
				ph.waits[c] = append(ph.waits[c], wait)
			case errors.Is(err, kms.ErrOverload):
				ph.shed[c]++
			default:
				ph.timedOut[c]++
			}
		}

		// The link pump: tickBits per wall millisecond for the whole
		// phase, sampling the service's pressure/demand snapshot as it
		// goes.
		pumpStop := make(chan struct{})
		var pumpWG sync.WaitGroup
		pumpWG.Add(1)
		go func() {
			defer pumpWG.Done()
			gen := rng.NewSplitMix64(seed ^ 0xE18)
			for t := 0; ; t++ {
				select {
				case <-pumpStop:
					return
				default:
				}
				feed.Deposit(gen.Bits(tickBits))
				ph.mu.Lock()
				ph.deposited += tickBits
				ph.mu.Unlock()
				if t%4 == 3 {
					st := kds.Stats()
					var demand int64
					for c := range st.DemandBits {
						demand += int64(st.DemandBits[c])
					}
					ph.mu.Lock()
					if st.Pressure > ph.maxPress {
						ph.maxPress = st.Pressure
					}
					if demand > ph.maxDemand {
						ph.maxDemand = demand
					}
					ph.mu.Unlock()
				}
				time.Sleep(time.Millisecond)
			}
		}()
		start := wallNow()

		// Background auth replenishers: one LEDBAT controller each in
		// the flow phase, a fixed 4x-oversubscribed appetite open-loop.
		var bgs []*flow.Background
		if flowOn {
			bgs = make([]*flow.Background, authUsers)
			for i := range bgs {
				bgs[i] = flow.NewBackground(fmt.Sprintf("e18/auth/%d", i), kds, flow.BackgroundConfig{
					Target:    2 * time.Millisecond,
					MinWindow: bgFloor,
					MaxWindow: 1024,
					YieldBeta: 0.05,
				})
			}
		}
		runBG := func(segIdx int, dur time.Duration) {
			deadline := wallNow().Add(dur)
			t0 := wallNow()
			var wg sync.WaitGroup
			for i := 0; i < authUsers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for wallNow().Before(deadline) {
						req := authChunk
						if flowOn {
							w := bgs[i].Tick()
							if w <= bgFloor {
								// Yielded to the floor: a background
								// class that trickles during foreground
								// bursts still costs OTP bits, so hold
								// off entirely.
								time.Sleep(time.Millisecond)
								continue
							}
							if w < authCap {
								req = w
							} else {
								req = authCap
							}
						}
						t0 := wallNow()
						_, err := authView.Consume(req, 500*time.Millisecond)
						rec(kms.ClassAuth, req, wallSince(t0), err)
						if err == nil {
							ph.mu.Lock()
							ph.authWins[i] += req
							ph.bgBits[segIdx] += int64(req)
							ph.mu.Unlock()
						}
						time.Sleep(time.Millisecond)
					}
				}(i)
			}
			wg.Wait()
			ph.bgDur[segIdx] = wallSince(t0)
		}

		collect := func(st flow.Stats) {
			ph.mu.Lock()
			defer ph.mu.Unlock()
			ph.ctl.Ticks += st.Ticks
			ph.ctl.Marks += st.Marks
			ph.ctl.MarkSets += st.MarkSets
			ph.ctl.Increases += st.Increases
			ph.ctl.Decreases += st.Decreases
			ph.ctl.Sheds += st.Sheds
		}

		// Segment 1: background only.
		runBG(0, seg1)

		// Segment 2: the foreground burst. OTP consumers are paced
		// (half-capacity appetite — the paper's premise is that OTP
		// traffic is precious, not unbounded); rekey consumers are the
		// overload, offering tens of times the link rate.
		//
		// The foreground controllers register their demand before any
		// consumer starts, so the burst is visible to the background's
		// first tick of the segment: auth requests sent in the gap
		// would otherwise queue behind the burst and set the auth p99,
		// depending on which goroutine the scheduler ran first.
		otpCtl := make([]*flow.Controller, otpUsers)
		rekeyCtl := make([]*flow.Controller, rekeyUsers)
		if flowOn {
			for i := range otpCtl {
				otpCtl[i] = flow.NewController(fmt.Sprintf("e18/otp/%02d", i), kms.ClassOTP, kds, flow.Config{
					MinWindow: otpBlock, MaxWindow: otpBlocks * otpBlock,
					MarkHigh: 0.3, MarkLow: 0.15,
				})
			}
			for i := range rekeyCtl {
				rekeyCtl[i] = flow.NewController(fmt.Sprintf("e18/rekey/%02d", i), kms.ClassRekey, kds, flow.Config{
					MinWindow: rekeyBlock, MaxWindow: rekeyBlocks * rekeyBlock,
					MarkHigh: 0.3, MarkLow: 0.15,
				})
			}
		}
		fgEnd := wallNow().Add(seg2)
		var fg sync.WaitGroup
		for i := 0; i < otpUsers; i++ {
			fg.Add(1)
			go func(i int) {
				defer fg.Done()
				ctl := otpCtl[i]
				if ctl != nil {
					defer func() { collect(ctl.Stats()); ctl.Close() }()
				}
				for wallNow().Before(fgEnd) {
					blocks := otpBlocks
					if ctl != nil {
						if blocks = ctl.Tick() / otpBlock; blocks > otpCap {
							blocks = otpCap
						}
						if blocks < 1 {
							blocks = 1
						}
					}
					t0 := wallNow()
					_, _, err := otpSt[i].Next(blocks, 5*time.Second, nil)
					rec(kms.ClassOTP, blocks*otpBlock, wallSince(t0), err)
					if err == nil {
						ph.mu.Lock()
						ph.otpWins[i] += blocks * otpBlock
						ph.mu.Unlock()
					}
					if d := otpEvery - wallSince(t0); d > 0 {
						time.Sleep(d)
					}
				}
			}(i)
		}
		for i := 0; i < rekeyUsers; i++ {
			fg.Add(1)
			go func(i int) {
				defer fg.Done()
				ctl := rekeyCtl[i]
				if ctl != nil {
					defer func() { collect(ctl.Stats()); ctl.Close() }()
				}
				for wallNow().Before(fgEnd) {
					blocks := rekeyBlocks
					if ctl != nil {
						// Closed loop: small uniform bites, never more
						// than the credit window allows.
						if blocks = ctl.Tick() / rekeyBlock; blocks > rekeyCap {
							blocks = rekeyCap
						}
						if blocks < 1 {
							blocks = 1
						}
					}
					t0 := wallNow()
					// The reservation is deliberately kept (not
					// released): a rekey that lands spends its Qblocks.
					_, err := rekeySt[i].AllocateWait(blocks, 500*time.Millisecond, nil)
					rec(kms.ClassRekey, blocks*rekeyBlock, wallSince(t0), err)
					switch {
					case err == nil:
						ph.mu.Lock()
						ph.rekeyWins[i] += blocks * rekeyBlock
						ph.mu.Unlock()
					case errors.Is(err, kms.ErrOverload) && ctl != nil:
						ctl.OnShed()
					}
					if d := rekeyEvery - wallSince(t0); d > 0 {
						time.Sleep(d)
					}
				}
			}(i)
		}
		runBG(1, seg2)
		fg.Wait() // foreground controllers close here: demand clears

		// Segment 3: background only again — the recovery measurement.
		runBG(2, seg3)

		close(pumpStop)
		pumpWG.Wait()
		if flowOn {
			for _, bg := range bgs {
				ph.mu.Lock()
				ph.yields += bg.Stats().Yields
				ph.mu.Unlock()
				bg.Close()
			}
		}
		ph.wall = wallSince(start)
		return ph, nil
	}

	base, err := runPhase(false)
	if err != nil {
		return r, fmt.Errorf("E18: open-loop phase: %w", err)
	}
	fl, err := runPhase(true)
	if err != nil {
		return r, fmt.Errorf("E18: flow-controlled phase: %w", err)
	}

	pct := func(ws []time.Duration, p float64) time.Duration {
		if len(ws) == 0 {
			return 0
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		i := int(p*float64(len(ws))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ws) {
			i = len(ws) - 1
		}
		return ws[i]
	}
	rate := func(bits int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bits) / (float64(d) / float64(time.Millisecond))
	}

	// Overload factor: foreground appetite actually submitted during
	// the burst window, against what the link could deliver in it.
	offered := base.offered[kms.ClassOTP] + base.offered[kms.ClassRekey]
	overload := float64(offered) / (float64(seg2.Milliseconds()) * tickBits)
	r.Rowf("load: %d consumers (%d otp, %d rekey, %d auth); open-loop burst offered %.0fx the link's delivery rate",
		otpUsers+rekeyUsers+authUsers, otpUsers, rekeyUsers, authUsers, overload)
	r.Rowf("peak service snapshot under flow control: pressure %.2f, registered demand %d bits",
		fl.maxPress, fl.maxDemand)
	r.Rowf("%-8s %28s %28s", "", "open-loop (shed-only)", "flow-controlled")
	r.Rowf("%-8s %8s %6s %5s %7s %8s %6s %5s %7s", "class",
		"served", "shed", "tout", "p99", "served", "shed", "tout", "p99")
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		r.Rowf("%-8s %8d %6d %5d %7s %8d %6d %5d %7s", c,
			base.served[c], base.shed[c], base.timedOut[c],
			pct(base.waits[c], 0.99).Round(100*time.Microsecond),
			fl.served[c], fl.shed[c], fl.timedOut[c],
			pct(fl.waits[c], 0.99).Round(100*time.Microsecond))
	}
	r.Rowf("fairness (Jain, flow-controlled): otp %.3f, rekey %.3f, auth %.3f",
		jain(fl.otpWins), jain(fl.rekeyWins), jain(fl.authWins))
	bg1, bg2, bg3 := rate(fl.bgBits[0], fl.bgDur[0]), rate(fl.bgBits[1], fl.bgDur[1]), rate(fl.bgBits[2], fl.bgDur[2])
	r.Rowf("background yield: auth %.0f -> %.0f -> %.0f bit/ms across warmup/burst/recovery (%d yield cuts)",
		bg1, bg2, bg3, fl.yields)
	r.Rowf("foreground controllers: %d ticks, %d marked (%d mark sets), %d decreases, %d hard sheds fed back",
		fl.ctl.Ticks, fl.ctl.Marks, fl.ctl.MarkSets, fl.ctl.Decreases, fl.ctl.Sheds)

	// --- Gates on the side-by-side comparison. ---
	if overload < 10 {
		return r, fmt.Errorf("E18: burst offered only %.1fx the delivery rate; not an overload experiment", overload)
	}
	if fl.timedOut[kms.ClassOTP] != 0 {
		return r, fmt.Errorf("E18: %d high-class requests timed out under flow control", fl.timedOut[kms.ClassOTP])
	}
	for i, w := range fl.otpWins {
		if w == 0 {
			return r, fmt.Errorf("E18: otp consumer %d starved under flow control", i)
		}
	}
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		if base.served[c] == 0 || fl.served[c] == 0 {
			return r, fmt.Errorf("E18: class %s served nothing (base %d, flow %d)", c, base.served[c], fl.served[c])
		}
		bp, fp := pct(base.waits[c], 0.99), pct(fl.waits[c], 0.99)
		if fp >= bp {
			return r, fmt.Errorf("E18: class %s p99 wait %v under flow control not better than open-loop %v", c, fp, bp)
		}
	}
	for _, f := range []struct {
		name string
		j    float64
	}{{"otp", jain(fl.otpWins)}, {"rekey", jain(fl.rekeyWins)}, {"auth", jain(fl.authWins)}} {
		if f.j < 0.9 {
			return r, fmt.Errorf("E18: Jain fairness %.3f across %s consumers under flow control (< 0.9)", f.j, f.name)
		}
	}
	if fl.yields == 0 || bg2 >= 0.5*bg1 {
		return r, fmt.Errorf("E18: background did not yield to foreground (%d cuts, %.0f -> %.0f bit/ms)", fl.yields, bg1, bg2)
	}
	if bg3 <= 0.4*bg1 {
		return r, fmt.Errorf("E18: background did not recover after the burst (%.0f vs warmup %.0f bit/ms)", bg3, bg1)
	}

	// --- Act two: the same loop through the VPN stack. A soft-expiry
	// storm fires against a nearly-empty KDS; the rekeyer's flow
	// controller must mark on pressure, shrink the batch window, and
	// drain in spaced bites once key returns. ---
	tunnels := 64
	if quick {
		tunnels = 32
	}
	specs := make([]vpn.TunnelSpec, tunnels)
	for i := range specs {
		specs[i] = vpn.TunnelSpec{
			Name:    fmt.Sprintf("t%d", i),
			PrefixA: ipsec.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)),
			PrefixB: ipsec.MustPrefix(fmt.Sprintf("10.2.%d.0/24", i)),
			Suite:   ipsec.SuiteAES128CTR,
			// 6 sealed 96-byte packets cross the soft threshold (525B)
			// but stay under the hard limit, so the whole net rekeys
			// behind live traffic.
			Life: ipsec.Lifetime{Bytes: 600},
		}
	}
	n, err := vpn.New(vpn.Config{
		NoQKD:            true,
		KDS:              true,
		FlowControl:      true,
		FlowConfig:       flow.Config{MarkHigh: 0.5, MarkLow: 0.25},
		IKE:              ike.Config{Phase2Timeout: 150 * time.Millisecond},
		Tunnels:          specs,
		Seed:             seed,
		RekeyWorkers:     4,
		RekeyBatch:       16,
		RekeyBackoff:     2 * time.Millisecond,
		RekeyBackoffMax:  40 * time.Millisecond,
		RekeyRetryBudget: 1 << 20,
	})
	if err != nil {
		return r, fmt.Errorf("E18: vpn: %w", err)
	}
	defer n.Close()
	// Exactly enough key to establish (one Qblock per tunnel) plus one
	// block of slack; the storm finds a starved service.
	n.ChargeSynthetic(tunnels*ike.QblockBits + ike.QblockBits)
	if err := n.Establish(); err != nil {
		return r, fmt.Errorf("E18: establish: %w", err)
	}
	estSAs := n.A.IKE.Stats().SAsEstablished

	payload := bytes.Repeat([]byte{0x18}, 80)
	for i := 0; i < tunnels; i++ {
		src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
		dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
		for p := 0; p < 6; p++ {
			if _, err := n.Send(src, dst, uint32(p), payload); err != nil {
				return r, fmt.Errorf("E18: storm traffic tunnel %d packet %d: %w", i, p, err)
			}
		}
	}
	// Famine with a trickle: enough deposits to seed the rate
	// estimator at a starvation-level capacity, nowhere near enough to
	// cover the storm — admission sheds, negotiations time out, the
	// controller marks and the rekeyer spaces its retries. The trickle
	// brings less than one Qblock per exchange timeout (256 bits every
	// 48 ms, at most 800 bits in 150 ms; a late sleep only slows it),
	// and the famine outlasts two timeouts. So the first exchange that
	// starts once the slack block is spent cannot be fed in time,
	// whatever batch size the controller picked and however the
	// goroutines were scheduled.
	for t := 0; t < 8; t++ {
		time.Sleep(48 * time.Millisecond)
		n.ChargeSynthetic(256)
	}
	stormStats := n.RekeyController().Stats()
	stormWin := n.RekeyController().Window()
	// Key returns; the queue must drain fully (two fresh SAs per
	// tunnel on top of establishment).
	n.ChargeSynthetic(2 * tunnels * ike.QblockBits)
	deadline := wallNow().Add(60 * time.Second)
	for n.A.IKE.Stats().SAsEstablished < estSAs+uint64(2*tunnels) {
		if wallNow().After(deadline) {
			return r, fmt.Errorf("E18: rekey storm wedged: %d of %d SAs re-established",
				n.A.IKE.Stats().SAsEstablished-estSAs, 2*tunnels)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < tunnels; i++ {
		src := ipsec.MustAddr(fmt.Sprintf("10.1.%d.5", i))
		dst := ipsec.MustAddr(fmt.Sprintf("10.2.%d.9", i))
		if _, err := n.SendWithRollover(src, dst, uint32(100+i), payload); err != nil {
			return r, fmt.Errorf("E18: post-storm ping tunnel %d: %w", i, err)
		}
	}
	cs := n.RekeyController().Stats()
	vs := n.Stats()
	r.Rowf("vpn storm: %d tunnels soft-expired against a starved KDS; controller marked %d ticks (%d sets), window %d bits mid-famine, %d sheds fed back",
		tunnels, cs.Marks, cs.MarkSets, stormWin, cs.Sheds)
	r.Rowf("vpn drain: %d spaced retries, %d abandoned; all %d tunnels re-keyed and pinged on fresh SAs",
		vs.RekeyRetries, vs.RekeyAbandoned, tunnels)
	if stormStats.MarkSets == 0 || stormStats.Decreases == 0 {
		return r, fmt.Errorf("E18: rekey controller never marked during the famine (marks %d, decreases %d)",
			stormStats.Marks, stormStats.Decreases)
	}
	if vs.RekeyRetries == 0 {
		return r, fmt.Errorf("E18: storm drained without a single spaced retry; famine never bit")
	}
	if vs.RekeyAbandoned != 0 {
		return r, fmt.Errorf("E18: %d tunnels abandoned by the rekeyer", vs.RekeyAbandoned)
	}
	if f := n.A.GW.Stats().IntegFailures + n.B.GW.Stats().IntegFailures; f != 0 {
		return r, fmt.Errorf("E18: %d integrity failures during the storm", f)
	}
	r.Rowf("result: closed loop beats open loop on every class p99 under %.0fx overload, with fair shares and a yielding background", overload)
	return r, nil
}
