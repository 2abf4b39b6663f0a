// Command perfbench is the repository's end-to-end benchmark: the key
// chain from photon frames through distillation, the key delivery
// service and IKE quick mode into ESP-protected packets, driven from
// outside through the packages' public calls.
//
//	perfbench --workload otp-keyrace --seed 7 --seconds 10 --trace 0
//
// It builds the two-site system for the named workload (inputs derived
// from the seed), runs it for the given seconds, checks every delivered
// packet and the key ledgers, and prints one JSON result as its last
// line: end-to-end metrics with --trace 0, per-layer metrics from a
// traced run with --trace 1. A failed check exits 1 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qkd/internal/core"
)

// setupRepeats is how many times a run builds its system; setup_s is
// the median, and the last build is the one measured.
const setupRepeats = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: otp-keyrace, aes-dataplane or rekey-storm")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	res, detail, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// distRun is what the distiller loop hands back.
type distRun struct {
	err error
	tr  *tracer
	// counters at the traced window's edges
	m0, m1 core.Metrics
	f0, f1 uint64 // frames
	d0, d1 uint64 // detections
	e0, e1 uint64 // EC messages
}

// runDistiller pumps frames until stop, back to back or at the link's
// real-time frame rate, tracing frames that start within
// [traceFrom, traceTo).
func runDistiller(d *distiller, stop <-chan struct{}, paced bool, traceFrom, traceTo int64) *distRun {
	out := &distRun{}
	period := int64(float64(frameSlots) / labParams().PulseRateHz * 1e9)
	now := func() int64 { return int64(time.Since(d.epoch)) }
	finishTrace := func() {
		if d.tr != nil {
			d.tr.end()
			out.tr, d.tr = d.tr, nil
			out.m1, out.f1, out.d1, out.e1 = d.bob.Metrics(), d.frames, d.detections, d.ecMsgs
		}
	}
	defer finishTrace()
	base := now()
	for k := int64(0); ; k++ {
		t := now()
		if out.tr == nil && d.tr == nil && traceFrom < traceTo && t >= traceFrom && t < traceTo {
			d.tr = newTracer("distiller", d.epoch)
			d.tr.begin("loop.distiller")
			out.m0, out.f0, out.d0, out.e0 = d.bob.Metrics(), d.frames, d.detections, d.ecMsgs
		}
		if t >= traceTo {
			finishTrace()
		}
		select {
		case <-stop:
			return out
		default:
		}
		if due := base + k*period; paced && t < due {
			d.tr.begin("idle.pace")
			timer := time.NewTimer(time.Duration(due - t))
			select {
			case <-stop:
				timer.Stop()
				d.tr.end()
				return out
			case <-timer.C:
			}
			d.tr.end()
		}
		if err := d.frame(); err != nil {
			out.err = err
			return out
		}
	}
}

func run(o options) (*result, map[string]any, error) {
	mk := workloads[o.workload]
	if mk == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	p := mk(o.seed)
	epoch := time.Now()

	var setups []float64
	var st *stack
	for r := 0; r < setupRepeats; r++ {
		t := time.Now()
		s, err := buildStack(p, o.seed, epoch)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if st != nil {
			st.close()
		}
		st = s
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	runtime.GC()

	// Phases: a warm-up, then the measured window. A traced run measures
	// its first quarter untraced, as the reference for the tracing
	// overhead, and traces the rest.
	ns := func(s float64) int64 { return int64(s * 1e9) }
	warm := math.Min(1, o.seconds/10)
	t0 := int64(time.Since(epoch))
	start, end := t0+ns(warm), t0+ns(warm+o.seconds)
	bounds := []int64{t0, start, end}
	traced := []bool{false, false}
	traceFrom, traceTo := int64(0), int64(0)
	if o.trace {
		mid := start + ns(o.seconds/4)
		bounds = []int64{t0, start, mid, end}
		traced = []bool{false, false, true}
		traceFrom, traceTo = mid, end
	}

	var dist *distRun
	stop := make(chan struct{})
	distDone := make(chan struct{})
	if st.dist != nil {
		go func() {
			defer close(distDone)
			dist = runDistiller(st.dist, stop, p.distill == distillPaced, traceFrom, traceTo)
		}()
	} else {
		close(distDone)
	}
	snd := &sender{st: st, p: p, epoch: epoch, heap: newHeapGauge(), alloc: newAllocCounter()}
	sr, sendErr := snd.run(bounds, traced)
	// Rekeys the last packets triggered finish while key still flows;
	// then the distiller stops and the ledgers must balance exactly.
	qerr := quiesce(st, 5*time.Second)
	close(stop)
	<-distDone
	if sendErr != nil {
		return nil, nil, sendErr
	}
	if dist != nil && dist.err != nil {
		return nil, nil, fmt.Errorf("distillation: %w", dist.err)
	}
	if qerr != nil {
		return nil, nil, fmt.Errorf("quiescence: %w", qerr)
	}
	final := takeSnap(st)
	if err := checkLedger(final); err != nil {
		return nil, nil, err
	}
	if err := checkCounters(final); err != nil {
		return nil, nil, err
	}
	if d := st.dist; d != nil {
		if a, b := d.alice.Metrics().DistilledBits, d.bob.Metrics().DistilledBits; a != b {
			return nil, nil, fmt.Errorf("engines distilled different key: Alice %d bits, Bob %d", a, b)
		}
	}
	events := st.rec.snapshot()
	var deps []deposit
	if st.dist != nil {
		deps = st.dist.deposits
	}
	closed = true
	st.close()

	m := &measured{sr: sr, dist: dist, events: events, deps: deps, setups: setups}
	detail := map[string]any{"workload": o.workload, "seed": o.seed, "setup_runs_s": setups}
	if st.dist != nil {
		detail["discarded_batches"] = st.dist.discarded
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var err error
	if o.trace {
		err = m.perLayer(res, detail, 2)
		if err == nil {
			err = writeTrace(o, sr.traces[2], dist)
		}
	} else {
		err = m.endToEnd(res, detail, 1)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, detail, nil
}

func writeTrace(o options, sender *tracer, dist *distRun) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	var dt *tracer
	if dist != nil {
		dt = dist.tr
	}
	return writeSpans(filepath.Join(o.traceOut, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed)), sender, dt)
}

// measured holds one run's raw observations.
type measured struct {
	sr     *senderRun
	dist   *distRun
	events []ikeEvent
	deps   []deposit
	setups []float64
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var errFewSamples = errors.New("too few samples")

// endToEnd fills the untraced run's metrics from phase k.
func (m *measured) endToEnd(res *result, detail map[string]any, k int) error {
	s0, s1 := m.sr.snaps[k], m.sr.snaps[k+1]
	acc := m.sr.accs[k]
	wall := float64(s1.at-s0.at) / 1e9
	cpu := s1.cpu - s0.cpu
	keybits := float64(s1.sys.a.ike.QbitsConsumed - s0.sys.a.ike.QbitsConsumed)
	mb := float64(acc.bytes) / 1e6
	res.Attempted = acc.attempted + s1.sys.a.ike.Phase2Initiated - s0.sys.a.ike.Phase2Initiated
	res.Failed = acc.failed + s1.sys.a.ike.Phase2Failed - s0.sys.a.ike.Phase2Failed
	f2sa := frameToSA(m.deps, m.events, s0.at, s1.at)

	// need passes a percentile through, failing the run when too few
	// samples lie beyond it.
	var err error
	need := func(name string, n uint64, v float64, ok bool) float64 {
		if !ok && err == nil {
			err = fmt.Errorf("%w for %s: %d", errFewSamples, name, n)
		}
		return v
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(m.setups))
	qbits := func(s slice) float64 { return float64(s.qbits) }
	mbytes := func(s slice) float64 { return float64(s.bytes) / 1e6 }
	secs := func(s slice) float64 { return float64(s.at) / 1e9 }
	cpus := func(s slice) float64 { return s.cpu }
	set("keybits_per_s", "bit/s", sliceMedian(acc.slices, qbits, secs))
	set("keybits_per_cpu_s", "bit/cpu-s", sliceMedian(acc.slices, qbits, cpus))
	set("protected_mb_per_s", "MB/s", sliceMedian(acc.slices, mbytes, secs))
	set("protected_mb_per_cpu_s", "MB/cpu-s", sliceMedian(acc.slices, mbytes, cpus))
	for i, name := range []string{"pkt_latency_us.p50", "pkt_latency_us.p99"} {
		v, ok := acc.latencyPct(i)
		set(name, "us", need(name, acc.lat.n, v, ok)/1e3)
	}
	for i, name := range []string{"frame_to_sa_ms.p50", "frame_to_sa_ms.p99"} {
		v, ok := f2sa.quantile(reportQs[i])
		set(name, "ms", need(name, f2sa.n, v, ok)/1e6)
	}
	set("peak_heap_mb", "MB", acc.heapMedian()/1e6)
	if err != nil {
		return err
	}
	for name, mt := range res.Metrics {
		if mt.Value <= 0 {
			return fmt.Errorf("metric %s is %v; every end-to-end metric must be positive", name, mt.Value)
		}
	}
	detail["samples"] = map[string]uint64{"pkt_latency_us": acc.lat.n, "frame_to_sa_ms": f2sa.n}
	detail["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	detail["window"] = map[string]float64{"wall_s": wall, "cpu_s": cpu, "keybits": keybits, "protected_mb": mb, "slices": float64(len(acc.slices) - 1)}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
