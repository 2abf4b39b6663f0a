package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"qkd/internal/ipsec"
	"qkd/internal/vpn"
)

// sliceNs is the sub-window the throughput and heap metrics are taken
// over: a run reports its median slice, which a burst of noise from
// elsewhere on the machine within one second cannot move.
const sliceNs = int64(time.Second)

// latSliceNs is the latency slice: short enough that a stall of the
// whole machine lands in few of a run's slices, long enough for a p99
// with ten samples beyond it at the dataplane workloads' packet rates.
const latSliceNs = int64(100 * time.Millisecond)

// sampleNs spaces the heap and KDS backlog samples.
const sampleNs = int64(time.Millisecond)

// reportQs are the percentiles every timing reports: p50 and p99.
var reportQs = [...]float64{0.50, 0.99}

// slice is the running totals at a slice boundary, plus the heap peak
// sampled during the slice it closes.
type slice struct {
	at       int64
	cpu      float64
	bytes    uint64
	qbits    uint64 // key drawn into SAs on site A
	heapPeak uint64
}

// senderAcc accumulates one phase of the sender loop.
type senderAcc struct {
	lat        hist
	attempted  uint64
	failed     uint64
	bytes      uint64
	seal, open [3]mean
	backlog    mean
	allocs     uint64
	allocPkts  uint64
	slices     []slice

	heapPeak uint64 // within the open slice
	// Latency percentiles per latency slice: curLat collects the open
	// slice, closed slices leave only their percentiles.
	curLat    hist
	curFrom   int64
	slicePct  [len(reportQs)][]float64
	thinSlice bool // some slice held fewer than minSliceSamples
}

// minSliceSamples is the fewest samples a latency slice may hold for the
// slice medians to stand in for the window's percentiles: with fewer, a
// slice's p99 has under ten samples beyond it, and its p50 sits on the
// coarse grid a few samples make.
const minSliceSamples = 1000

// closeLatSlice records the open latency slice's percentiles (a slice
// shorter than half the length, at a phase's end, is dropped) and
// starts the next.
func (acc *senderAcc) closeLatSlice(now int64) {
	if now-acc.curFrom >= latSliceNs/2 {
		for i, q := range reportQs {
			v, _ := acc.curLat.quantile(q)
			acc.slicePct[i] = append(acc.slicePct[i], v)
		}
		acc.thinSlice = acc.thinSlice || acc.curLat.n < minSliceSamples
	}
	acc.curLat = hist{}
	acc.curFrom = now
}

// latencyPct reports the i-th latency percentile: the median over the
// phase's latency slices when every slice is well filled, else the
// percentile over the whole phase.
func (acc *senderAcc) latencyPct(i int) (float64, bool) {
	if len(acc.slicePct[i]) > 0 && !acc.thinSlice {
		return median(acc.slicePct[i]), true
	}
	return acc.lat.quantile(reportQs[i])
}

// sliceMedian is the median over slices of num/den, each taken as the
// difference across the slice.
func sliceMedian(sl []slice, num, den func(slice) float64) float64 {
	var rs []float64
	for i := 1; i < len(sl); i++ {
		if d := den(sl[i]) - den(sl[i-1]); d > 0 {
			rs = append(rs, (num(sl[i])-num(sl[i-1]))/d)
		}
	}
	if len(rs) == 0 {
		return 0
	}
	return median(rs)
}

// heapMedian is the median over slices of each slice's sampled heap peak.
func (acc *senderAcc) heapMedian() float64 {
	var ps []float64
	for _, s := range acc.slices[1:] {
		ps = append(ps, float64(s.heapPeak))
	}
	if len(ps) == 0 {
		return 0
	}
	return median(ps)
}

// sizeClass buckets a payload for the per-size ipsec metrics.
func sizeClass(n int) int {
	switch {
	case n <= 128:
		return 0
	case n <= 512:
		return 1
	}
	return 2
}

var sizeClassNames = [3]string{"le128", "le512", "gt512"}

// errCorrupt marks a delivered packet that differs from what was sent.
var errCorrupt = errors.New("delivered packet differs from the one sent")

// verifyDelivery is the per-packet correctness check.
func verifyDelivery(sent, got []byte) error {
	if !bytes.Equal(sent, got) {
		return errCorrupt
	}
	return nil
}

// rolloverErr reports the send failures SendWithRollover recovers from
// by renegotiating the tunnel.
func rolloverErr(err error) bool {
	return errors.Is(err, ipsec.ErrNoSA) || errors.Is(err, ipsec.ErrExpired) ||
		errors.Is(err, ipsec.ErrPadExhaust) || errors.Is(err, ipsec.ErrUnknownSPI)
}

// sender is the benchmark's one user: a closed loop cycling through the
// plan's packets, each sent once the previous one has arrived.
type sender struct {
	st    *stack
	p     *plan
	epoch time.Time
	i     int
	id    uint32
	heap  *heapGauge
	alloc *allocCounter
}

func (s *sender) now() int64 { return int64(time.Since(s.epoch)) }

// send pushes one packet through the tunnels and checks what arrives.
// With a tracer it replays vpn.Network.SendWithRollover through the
// gateways' public calls so seal and open are timed apart; without one
// it calls SendWithRollover itself. A non-nil error is a correctness
// failure; a refused or dropped packet only counts as failed.
func (s *sender) send(k pkt, tr *tracer, acc *senderAcc) error {
	src, dst := s.hosts(k)
	payload := s.p.payload[k.off : k.off+k.size]
	s.id++
	acc.attempted++
	var got []byte
	var err error
	if tr == nil {
		got, err = s.st.net.SendWithRollover(src, dst, s.id, payload)
	} else {
		got, err = s.sendTraced(k, src, dst, payload, tr, acc)
	}
	if err != nil {
		if errors.Is(err, errCorrupt) {
			return err
		}
		acc.failed++
		return nil
	}
	if err := verifyDelivery(payload, got); err != nil {
		return err
	}
	acc.bytes += uint64(len(payload))
	return nil
}

func (s *sender) hosts(k pkt) (src, dst ipsec.Addr) {
	h := s.st.hosts[k.tunnel]
	if k.aToB {
		return h[0], h[1]
	}
	return h[1], h[0]
}

// allocSampleEvery spaces the allocation-count samples around seal+open:
// reading the runtime counter costs about as much as a small seal.
const allocSampleEvery = 16

func (s *sender) sendTraced(k pkt, src, dst ipsec.Addr, payload []byte, tr *tracer, acc *senderAcc) ([]byte, error) {
	net := s.st.net
	out, in := net.A.GW, net.B.GW
	if !k.aToB {
		out, in = in, out
	}
	tr.begin("vpn.send")
	defer tr.end()
	sample := s.id%allocSampleEvery == 0
	var a0 uint64
	if sample {
		a0 = s.alloc.read()
	}
	inner := &ipsec.Packet{Src: src, Dst: dst, Proto: ipsec.ProtoPing, ID: s.id, Payload: payload}
	tr.begin("ipsec.seal")
	outer, err := out.ProcessOutbound(inner)
	d := tr.end()
	var dec *ipsec.Packet
	if err == nil {
		acc.seal[sizeClass(len(payload))].add(float64(d))
		tr.begin("ipsec.open")
		dec, err = in.ProcessInbound(outer)
		d = tr.end()
		if err == nil {
			acc.open[sizeClass(len(payload))].add(float64(d))
			if sample {
				acc.allocs += s.alloc.read() - a0
				acc.allocPkts++
			}
		}
	}
	if err != nil {
		if !rolloverErr(err) {
			return nil, err
		}
		tr.begin("ike.rollover")
		got, err := net.SendWithRollover(src, dst, s.id, payload)
		tr.end()
		return got, err
	}
	if dec.Src != src || dec.Dst != dst || dec.ID != s.id {
		return nil, fmt.Errorf("%w: headers", errCorrupt)
	}
	return dec.Payload, nil
}

func (s *sender) slice(acc *senderAcc) {
	acc.slices = append(acc.slices, slice{at: s.now(), cpu: cpuSeconds(), bytes: acc.bytes,
		qbits: s.st.net.A.IKE.Stats().QbitsConsumed, heapPeak: acc.heapPeak})
	acc.heapPeak = 0
}

// phaseSnap is the state of the counters the end-to-end and per-layer
// metrics difference, taken at a phase boundary.
type phaseSnap struct {
	at   int64
	cpu  float64
	sys  snap
	vpnS vpn.Stats
}

func (s *sender) snapAt() phaseSnap {
	return phaseSnap{at: s.now(), cpu: cpuSeconds(), sys: takeSnap(s.st), vpnS: s.st.net.Stats()}
}

// senderRun is what the sender loop hands back: one accumulator, one
// tracer (nil when untraced) and one boundary snapshot per phase.
type senderRun struct {
	accs   []*senderAcc
	traces []*tracer
	snaps  []phaseSnap // snaps[k] opens phase k; the last closes the run
}

// run sends packets from bounds[0] until bounds[len-1]; phase k spans
// [bounds[k], bounds[k+1]) and is traced when traced[k].
func (s *sender) run(bounds []int64, traced []bool) (*senderRun, error) {
	nph := len(bounds) - 1
	out := &senderRun{accs: make([]*senderAcc, nph), traces: make([]*tracer, nph)}
	for k := range out.accs {
		out.accs[k] = &senderAcc{}
	}
	k := -1
	var tr *tracer
	var nextSlice, nextSample int64
	for {
		now := s.now()
		for k+1 <= nph && now >= bounds[k+1] {
			if tr != nil {
				tr.end()
				tr = nil
			}
			out.snaps = append(out.snaps, s.snapAt())
			if k >= 0 {
				s.slice(out.accs[k])
				out.accs[k].closeLatSlice(now)
			}
			k++
			if k < nph {
				s.slice(out.accs[k])
				out.accs[k].curFrom = now
				nextSlice = bounds[k] + sliceNs
				if traced[k] {
					tr = newTracer("sender", s.epoch)
					tr.begin("loop.sender")
					out.traces[k] = tr
				}
			}
		}
		if k >= nph {
			return out, nil
		}
		acc := out.accs[k]
		if now >= nextSlice && now < bounds[k+1]-sliceNs/2 {
			s.slice(acc)
			nextSlice += sliceNs
		}
		if now-acc.curFrom >= latSliceNs {
			acc.closeLatSlice(now)
		}
		if now >= nextSample {
			avail := s.st.net.A.KDS.Available()
			acc.backlog.add(float64(avail))
			acc.heapPeak = max(acc.heapPeak, s.heap.read())
			if avail < s.p.topUp {
				tr.begin("kms.charge")
				s.st.net.ChargeSynthetic(s.p.topUp)
				tr.end()
			}
			nextSample = now + sampleNs
		}
		if err := s.send(s.p.pkts[s.i], tr, acc); err != nil {
			return nil, fmt.Errorf("packet %d: %w", s.id, err)
		}
		s.i = (s.i + 1) % len(s.p.pkts)
		lat := uint64(s.now() - now)
		acc.lat.record(lat)
		acc.curLat.record(lat)
	}
}
