package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/kms"
	"qkd/internal/relay"
	"qkd/internal/rng"
)

// E13KDS exercises the key delivery service at the scale the paper's
// Section 8 networks imply but its testbed never reached: one
// 1 kbit/s-class link (time-compressed: each 1 ms wall tick carries one
// virtual second of link output) serving 1,000+ concurrent consumers
// spread across the three QoS classes, with key aggregated from two
// sources — the direct QKD link and relay-mesh end-to-end transport —
// and a mid-run link outage bridged by DTN custody buffering.
//
// Measured: delivered throughput, per-class p50/p99 scheduler wait,
// admission sheds and timeouts, the starvation count of the high class
// (must be zero: strict priority plus FIFO tickets), Jain's fairness
// index across the rekey-class consumers, and bit-exact
// (stream, sequence) key agreement between the two mirrored endpoints
// for every high-class block.
func E13KDS(seed uint64, quick bool) (*Report, error) {
	r := &Report{
		ID:    "E13",
		Title: "key delivery service: QoS under 1000+ consumers on one slow link",
		Paper: "\"the crux ... is whether the resulting key material is sufficiently rapid\" (Sec. 2); many-consumer networks sharing scarce distilled key (Sec. 8)",
	}

	ticks := 600
	otpRounds := 6
	if quick {
		ticks = 280
		otpRounds = 3
	}
	const (
		tickBits   = 1024 // one virtual second of a 1 kbit/s-class link
		otpUsers   = 32
		rekeyUsers = 256
		authUsers  = 744
		otpBlock   = 512
		rekeyBits  = 1024
		authBits   = 64
	)
	outageStart, outageEnd := ticks/3, ticks/3+ticks/6

	kcfg := kms.Config{ShedDelay: 30 * time.Millisecond}
	kdsA, kdsB := kms.New(kcfg), kms.New(kcfg)
	defer kdsA.Close()
	defer kdsB.Close()
	linkA, err := kdsA.AttachSource("qkd-link")
	if err != nil {
		return r, err
	}
	linkB, _ := kdsB.AttachSource("qkd-link")
	relayA, _ := kdsA.AttachSource("relay-mesh")
	relayB, _ := kdsB.AttachSource("relay-mesh")

	// High-class streams: one per OTP consumer, mirrored on both ends.
	otpA := make([]*kms.Stream, otpUsers)
	otpB := make([]*kms.Stream, otpUsers)
	for i := range otpA {
		name := fmt.Sprintf("otp/%03d", i)
		if otpA[i], err = kdsA.NewStream(name, otpBlock, kms.ClassOTP); err != nil {
			return r, err
		}
		if otpB[i], err = kdsB.NewStream(name, otpBlock, kms.ClassOTP); err != nil {
			return r, err
		}
	}
	// Mid-class streams: one per rekey consumer (allocator side only).
	rekeySt := make([]*kms.Stream, rekeyUsers)
	for i := range rekeySt {
		if rekeySt[i], err = kdsA.NewStream(fmt.Sprintf("rekey/%03d", i), rekeyBits, kms.ClassRekey); err != nil {
			return r, err
		}
	}
	authView := kdsA.PoolView(kms.ClassAuth)

	// The relay mesh feeding the second source: a small trusted-relay
	// network whose end-to-end deliveries land in both KDS instances
	// (the delivered key is by construction identical at both ends).
	mesh := relay.Star(seed^0xE13, 2048, "hub", "gwA", "gwB")

	type sample struct {
		class  kms.Class
		wait   time.Duration
		served bool
		shed   bool
	}
	var (
		samplesMu sync.Mutex
		samples   []sample
		rekeyWins = make([]int, rekeyUsers)
		otpWins   = make([]int, otpUsers)
	)
	record := func(c kms.Class, wait time.Duration, served, shed bool) {
		samplesMu.Lock()
		samples = append(samples, sample{c, wait, served, shed})
		samplesMu.Unlock()
	}

	// Cross-endpoint verification: every high-class ticket claimed on A
	// is re-claimed on B and compared bit for bit.
	type verify struct {
		idx  int
		tk   kms.Ticket
		bits *bitarray.BitArray
	}
	verifyC := make(chan verify, otpUsers*otpRounds)
	var verified, mismatched int
	verifierDone := make(chan struct{})
	go func() {
		defer close(verifierDone)
		for v := range verifyC {
			got, err := otpB[v.idx].Claim(v.tk, 30*time.Second, nil)
			if err != nil {
				mismatched++
				continue
			}
			if got.Equal(v.bits) {
				verified++
			} else {
				mismatched++
			}
		}
	}()

	var wg sync.WaitGroup
	var otpStarved int64
	var otpStarvedMu sync.Mutex

	// 32 OTP pad consumers: highest class, must never starve.
	for i := 0; i < otpUsers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < otpRounds; round++ {
				t0 := wallNow()
				tk, bits, err := otpA[i].Next(1, 60*time.Second, nil)
				if err != nil {
					otpStarvedMu.Lock()
					otpStarved++
					otpStarvedMu.Unlock()
					record(kms.ClassOTP, wallSince(t0), false, false)
					return
				}
				record(kms.ClassOTP, wallSince(t0), true, false)
				samplesMu.Lock()
				otpWins[i]++
				samplesMu.Unlock()
				verifyC <- verify{i, tk, bits}
			}
		}(i)
	}
	// 256 IKE rekey consumers: middle class, bounded patience.
	for i := 0; i < rekeyUsers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := rng.NewSplitMix64(seed ^ uint64(i)<<8)
			for round := 0; round < 4; round++ {
				time.Sleep(time.Duration(gen.Uint64()%5) * time.Millisecond)
				t0 := wallNow()
				tk, err := rekeySt[i].AllocateWait(1, 250*time.Millisecond, nil)
				switch {
				case err == nil:
					record(kms.ClassRekey, wallSince(t0), true, false)
					rekeySt[i].Release(tk) // spend without transport: load only
					samplesMu.Lock()
					rekeyWins[i]++
					samplesMu.Unlock()
				default:
					record(kms.ClassRekey, wallSince(t0), false, errors.Is(err, kms.ErrOverload))
				}
			}
		}(i)
	}
	// 744 auth-pad replenishers: lowest class, shed under overload.
	for i := 0; i < authUsers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := rng.NewSplitMix64(seed ^ 0xA0717 ^ uint64(i)<<4)
			for round := 0; round < 4; round++ {
				time.Sleep(time.Duration(gen.Uint64()%7) * time.Millisecond)
				t0 := wallNow()
				_, err := authView.Consume(authBits, 150*time.Millisecond)
				record(kms.ClassAuth, wallSince(t0), err == nil, errors.Is(err, kms.ErrOverload))
			}
		}(i)
	}

	// The link pump: each wall millisecond delivers one virtual second
	// of distilled key to both mirrored endpoints, through the
	// "qkd-link" feed (which suffers an outage and buffers in custody)
	// and, every 16 ticks, the relay mesh's end-to-end transport.
	gen := rng.NewSplitMix64(seed ^ 0x1111)
	start := wallNow()
	relayKeys := 0
	for tick := 0; tick < ticks; tick++ {
		if tick == outageStart {
			linkA.SetUp(false)
			linkB.SetUp(false)
		}
		if tick == outageEnd {
			linkA.SetUp(true)
			linkB.SetUp(true)
		}
		bits := gen.Bits(tickBits)
		linkA.Deposit(bits.Clone())
		linkB.Deposit(bits)
		mesh.Tick()
		if tick%16 == 15 {
			if d, err := mesh.TransportKey("gwA", "gwB", 256); err == nil {
				relayA.Deposit(d.Key.Clone())
				relayB.Deposit(d.Key)
				relayKeys++
			}
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(verifyC)
	<-verifierDone
	elapsed := wallSince(start)

	// Reduce the samples per class.
	type classAgg struct {
		reqs, served, shed, timedOut int
		waits                        []time.Duration
	}
	agg := map[kms.Class]*classAgg{}
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		agg[c] = &classAgg{}
	}
	samplesMu.Lock()
	for _, s := range samples {
		a := agg[s.class]
		a.reqs++
		switch {
		case s.served:
			a.served++
			a.waits = append(a.waits, s.wait)
		case s.shed:
			a.shed++
		default:
			a.timedOut++
		}
	}
	samplesMu.Unlock()

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

	stA := kdsA.Stats()
	var grantedBits uint64
	for c := range stA.GrantedBits {
		grantedBits += stA.GrantedBits[c]
	}
	consumers := otpUsers + rekeyUsers + authUsers
	r.Rowf("link: %d bits over %d virtual s (1 kbit/s-class, time-compressed %.2fs wall); +%d relay-mesh keys aggregated",
		ticks*tickBits, ticks, elapsed.Seconds(), relayKeys)
	r.Rowf("consumers: %d concurrent across %d QoS classes (%d otp > %d rekey > %d auth)",
		consumers, int(kms.NumClasses), otpUsers, rekeyUsers, authUsers)
	r.Rowf("%-8s %8s %8s %8s %9s %10s %10s", "class", "reqs", "served", "shed", "timeout", "p50 wait", "p99 wait")
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		a := agg[c]
		r.Rowf("%-8s %8d %8d %8d %9d %10s %10s", c, a.reqs, a.served, a.shed, a.timedOut,
			pct(a.waits, 0.50).Round(100*time.Microsecond), pct(a.waits, 0.99).Round(100*time.Microsecond))
	}
	r.Rowf("delivered: %d bits granted (%.0f bit/s of %d bit/s offered); starved high-class requests: %d",
		grantedBits, float64(grantedBits)/elapsed.Seconds(), tickBits*1000, otpStarved)
	r.Rowf("fairness (Jain): %.3f across %d otp consumers (supply guaranteed); %.3f across %d rekey consumers (4x oversubscribed, admission-shed)",
		jain(otpWins), otpUsers, jain(rekeyWins), rekeyUsers)
	fs := linkA.Stats()
	r.Rowf("DTN custody across outage [t=%d,%d): %d bits buffered, %d flushed on restore, 0 lost",
		outageStart, outageEnd, fs.BufferedBits, fs.FlushedBits)
	r.Rowf("cross-endpoint agreement: %d/%d high-class blocks bit-exact by (stream, seq) claim; %d mismatched",
		verified, verified+mismatched, mismatched)

	if otpStarved > 0 {
		return r, fmt.Errorf("E13: %d high-class requests starved", otpStarved)
	}
	if mismatched > 0 {
		return r, fmt.Errorf("E13: %d blocks disagreed between endpoints", mismatched)
	}
	if fs.BufferedBits == 0 || fs.BufferedBits != fs.FlushedBits {
		return r, fmt.Errorf("E13: DTN custody lost bits (%d buffered, %d flushed)", fs.BufferedBits, fs.FlushedBits)
	}
	return r, nil
}

// jain computes Jain's fairness index (Sum x)^2 / (n * Sum x^2): 1.0 is
// perfectly even, 1/n is one consumer taking everything.
func jain(xs []int) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += float64(x)
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
