package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"qkd/internal/keypool"
	"qkd/internal/rng"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false},
		{20, 0.50, true},
		{999, 0.99, false},
		{1000, 0.99, true},
	}
	for _, c := range cases {
		var h hist
		for i := 1; i <= c.n; i++ {
			h.record(uint64(i))
		}
		if _, ok := h.quantile(c.q); ok != c.want {
			t.Errorf("n=%d q=%v: reported=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestPercentileValue(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(uint64(i) * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		v, ok := h.quantile(q)
		want := q * 100000 * 1000
		if !ok || math.Abs(v-want)/want > 0.01 {
			t.Errorf("q=%v: got %v (ok=%v), want %v within 1%%", q, v, ok, want)
		}
	}
}

// spans builds a tracer from explicit begin/end times (nanoseconds).
func spans(loop string, events ...any) *tracer {
	tr := newTracer(loop, time.Time{})
	for i := 0; i < len(events); i += 2 {
		at := time.Duration(events[i+1].(int))
		if name := events[i].(string); name != "" {
			tr.beginAt(name, at)
		} else {
			tr.endAt(at)
		}
	}
	return tr
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := spans("sender",
		"loop.sender", 0,
		"vpn.send", 10, "ipsec.seal", 12, "", 20, "ipsec.open", 25, "", 40, "", 45,
		"ike.rollover", 50, "", 90,
		"", 100)
	want := map[string]time.Duration{"loop.sender": 100 - 35 - 40, "vpn.send": 35 - 8 - 15, "ipsec.seal": 8, "ipsec.open": 15, "ike.rollover": 40}
	for name, self := range want {
		if got := tr.agg[name].self; got != self {
			t.Errorf("%s self = %v, want %v", name, got, self)
		}
	}
	if p := tr.kept[2].Parent; p != 1 {
		t.Errorf("ipsec.seal parent = %d, want the vpn.send span (1)", p)
	}
}

func TestLayerSelfTimesAddUpToTotal(t *testing.T) {
	sender := spans("sender",
		"loop.sender", 0, "vpn.send", 5, "ipsec.seal", 6, "", 9, "", 11, "ike.rollover", 20, "", 70, "", 100)
	dist := spans("distiller",
		"loop.distiller", 0, "photonics.frame", 1, "", 30, "core.frame", 30,
		"sifting.frame", 31, "", 40, "cascade.batch", 40, "", 80, "kms.ingest", 81, "", 85, "", 90, "", 97)
	at := attribute(sender, dist)
	if at.total != 197 {
		t.Fatalf("total = %v, want 197", at.total)
	}
	var sum time.Duration
	for _, l := range at.layerNames() {
		sum += at.self[l]
	}
	if sum != at.total {
		t.Errorf("layer self times sum to %v, total %v (%v)", sum, at.total, at)
	}
	if got := at.self[rootLayer]; got != 100-6-50+97-29-60 {
		t.Errorf("other = %v", got)
	}
}

func TestCorruptPayloadFails(t *testing.T) {
	sent := []byte("quantum key bits")
	if err := verifyDelivery(sent, append([]byte(nil), sent...)); err != nil {
		t.Fatalf("identical payload: %v", err)
	}
	bad := append([]byte(nil), sent...)
	bad[3] ^= 1
	if err := verifyDelivery(sent, bad); !errors.Is(err, errCorrupt) {
		t.Errorf("flipped bit: got %v, want errCorrupt", err)
	}
	if err := verifyDelivery(sent, sent[:5]); !errors.Is(err, errCorrupt) {
		t.Errorf("truncated: got %v, want errCorrupt", err)
	}
}

func balanced() snap {
	var s snap
	for _, site := range []*siteSnap{&s.a, &s.b} {
		site.cursor = 4096
		site.avail = 1024
		site.kms.DepositedBits = 5120
		site.kms.ClaimedBits = 3072
		site.kms.ReleasedBits = 1024
		site.ike.QbitsConsumed = 3072
	}
	return s
}

func TestLedgerChecks(t *testing.T) {
	if err := checkLedger(balanced()); err != nil {
		t.Fatalf("balanced ledgers: %v", err)
	}
	for name, spoil := range map[string]func(*snap){
		"cursor":       func(s *snap) { s.b.cursor += 1024 },
		"deposited":    func(s *snap) { s.a.kms.DepositedBits += 8; s.a.avail += 8 },
		"conservation": func(s *snap) { s.b.avail -= 1 },
		"drawn":        func(s *snap) { s.a.ike.QbitsConsumed += 1024 },
	} {
		s := balanced()
		spoil(&s)
		if err := checkLedger(s); err == nil {
			t.Errorf("%s mismatch passed the ledger check", name)
		}
	}
	s := balanced()
	s.b.gw.IntegFailures = 1
	if err := checkCounters(s); err == nil {
		t.Error("an integrity failure passed the counter check")
	}
}

func TestConfirmDropsUnequalBatches(t *testing.T) {
	d := &distiller{aliceKeys: &heldKeys{Pool: keypool.New()}, bobKeys: &heldKeys{Pool: keypool.New()}}
	key := rng.NewSplitMix64(1).Bits(256)
	bad := key.Clone()
	bad.Flip(100)
	d.aliceKeys.Deposit(key.Clone())
	d.bobKeys.Deposit(key.Clone())
	d.aliceKeys.Deposit(key.Clone())
	d.bobKeys.Deposit(bad)
	if err := d.confirm(); err != nil {
		t.Fatal(err)
	}
	if d.discarded != 1 || d.aliceKeys.Available() != 256 || d.bobKeys.Available() != 256 {
		t.Errorf("discarded %d, deposited %d and %d bits; want 1 discarded, 256 bits each",
			d.discarded, d.aliceKeys.Available(), d.bobKeys.Available())
	}
	d.aliceKeys.Deposit(key)
	if err := d.confirm(); err == nil {
		t.Error("a batch distilled by one engine alone passed confirm")
	}
}

func TestFrameToSA(t *testing.T) {
	deps := []deposit{
		{start: 0, end: 5, cum: 1000},     // pre-charge
		{start: 100, end: 125, cum: 3000}, // frame
	}
	evs := []ikeEvent{
		{at: 10}, {at: 20, install: true, cursor: 200}, // establishment, outside the window
		{at: 50},                               // key already on hand: timed from the exchange start
		{at: 60, install: true, cursor: 800},   // 10
		{at: 130},                              // this exchange waited for the frame
		{at: 150, install: true, cursor: 2500}, // 50 from the frame's start
	}
	h := frameToSA(deps, evs, 30, 1000)
	if h.n != 2 || h.counts[bucketOf(10)] != 1 || h.counts[bucketOf(50)] != 1 {
		t.Errorf("got %d samples, want 2: one of 10 and one of 50", h.n)
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, _, err := run(options{workload: name, seed: 3, seconds: 1, trace: traced, traceOut: t.TempDir()})
				if errors.Is(err, errFewSamples) {
					continue // a one-second run is too short for its p99s; its checks passed
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
			}
		})
	}
}
