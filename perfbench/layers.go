package main

import (
	"time"

	"qkd/internal/kms"
)

// layers are the span layers the attribution reports, besides "other"
// (the driver loops' own time).
var layers = []string{"photonics", "sifting", "cascade", "entropy", "privacy", "core", "kms", "ike", "ipsec", "vpn", "idle"}

// perLayer fills the traced run's metrics from phase k (traced); phase
// k-1 is the untraced reference for the overhead.
func (m *measured) perLayer(res *result, detail map[string]any, k int) error {
	s0, s1 := m.sr.snaps[k], m.sr.snaps[k+1]
	acc := m.sr.accs[k]
	st := m.sr.traces[k]
	var dt *tracer
	d := m.dist
	if d != nil {
		dt = d.tr
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	us := func(x time.Duration) float64 { return float64(x) / 1e3 }
	meanUs := func(name string) float64 {
		a := aggOf(name, st, dt)
		return ratio(us(a.total), float64(a.count))
	}

	// Distillation, along Bob's engine path.
	var frames, detections, sifted, distilled, batches, aborted, disclosed, ecMsgs float64
	if d != nil && dt != nil {
		frames = float64(d.f1 - d.f0)
		detections = float64(d.d1 - d.d0)
		ecMsgs = float64(d.e1 - d.e0)
		sifted = float64(d.m1.SiftedBits - d.m0.SiftedBits)
		distilled = float64(d.m1.DistilledBits - d.m0.DistilledBits)
		aborted = float64(d.m1.BatchesAborted - d.m0.BatchesAborted)
		batches = float64(d.m1.BatchesDistilled-d.m0.BatchesDistilled) + aborted
		disclosed = float64(d.m1.ParityDisclosed - d.m0.ParityDisclosed)
	}
	set("photonics.frame_us", "us", meanUs("photonics.frame"))
	set("photonics.detections_per_frame", "count", ratio(detections, frames))
	set("sifting.frame_us", "us", ratio(us(aggOf("sifting.frame", dt).total), frames))
	set("sifting.sifted_per_detection", "ratio", ratio(sifted, detections))
	set("cascade.batch_us", "us", ratio(us(aggOf("cascade.batch", dt).total), batches))
	set("cascade.msgs_per_batch", "count", ratio(ecMsgs, batches))
	set("cascade.disclosed_per_bit", "ratio", ratio(disclosed, batches*batchBits))
	set("entropy.batch_us", "us", ratio(us(aggOf("entropy.batch", dt).total), batches))
	set("privacy.batch_us", "us", ratio(us(aggOf("privacy.batch", dt).total), batches))
	set("privacy.yield", "ratio", ratio(distilled, sifted))
	set("privacy.abort_ratio", "ratio", ratio(aborted, batches))
	set("core.other_us_per_frame", "us", ratio(us(aggOf("core.frame", dt).self), frames))

	// Key delivery, on site A (the allocating side).
	ka0, ka1 := s0.sys.a.kms, s1.sys.a.kms
	var granted, shed, degraded uint64
	for c := kms.Class(0); c < kms.NumClasses; c++ {
		granted += ka1.Granted[c] - ka0.Granted[c]
		shed += ka1.Shed[c] - ka0.Shed[c]
		degraded += ka1.Degraded[c] - ka0.Degraded[c]
	}
	set("kms.ingest_us", "us", meanUs("kms.ingest"))
	set("kms.backlog_bits", "bit", acc.backlog.value())
	set("kms.shed_ratio", "ratio", ratio(float64(shed), float64(granted+shed)))
	set("kms.degraded", "count", float64(degraded))

	// IKE quick mode, on site A (the initiator).
	ia0, ia1 := s0.sys.a.ike, s1.sys.a.ike
	durs, started, installed := exchanges(m.events, s0.at, s1.at)
	pairs := float64(ia1.SAsEstablished-ia0.SAsEstablished) / 2
	var omitted []string
	quantile := func(h *hist, q float64, name string) float64 {
		v, ok := h.quantile(q)
		if !ok {
			omitted = append(omitted, name)
		}
		return v
	}
	set("ike.exchange_ms.p50", "ms", quantile(durs, 0.50, "ike.exchange_ms.p50")/1e6)
	set("ike.exchange_ms.p99", "ms", quantile(durs, 0.99, "ike.exchange_ms.p99")/1e6)
	set("ike.tunnels_per_exchange", "count", ratio(float64(installed), float64(started)))
	set("ike.ticket_allocs_per_sa", "count", ratio(float64(ia1.TicketAllocs-ia0.TicketAllocs), pairs))
	set("ike.failed_ratio", "ratio", ratio(float64(ia1.Phase2Failed-ia0.Phase2Failed), float64(ia1.Phase2Initiated-ia0.Phase2Initiated)))

	// ESP dataplane, per payload size class.
	for c, name := range sizeClassNames {
		set("ipsec.seal_us."+name, "us", acc.seal[c].value()/1e3)
		set("ipsec.open_us."+name, "us", acc.open[c].value()/1e3)
	}
	set("ipsec.allocs_per_pkt", "count", ratio(float64(acc.allocs), float64(acc.allocPkts)))

	// VPN rollover machinery.
	set("vpn.rollovers", "count", pairs)
	set("vpn.rekey_retries", "count", float64(s1.vpnS.RekeyRetries-s0.vpnS.RekeyRetries))
	set("vpn.rekey_abandoned", "count", float64(s1.vpnS.RekeyAbandoned-s0.vpnS.RekeyAbandoned))

	attempted := acc.attempted + ia1.Phase2Initiated - ia0.Phase2Initiated
	failed := acc.failed + ia1.Phase2Failed - ia0.Phase2Failed
	res.Attempted, res.Failed = attempted, failed
	set("failed_ratio", "ratio", ratio(float64(failed), float64(attempted)))

	// Attribution: every traced loop's time, split by layer self time.
	at := attribute(st, dt)
	for _, l := range layers {
		set(l+".self_pct", "%", 100*ratio(float64(at.self[l]), float64(at.total)))
	}
	set("other", "%", 100*ratio(float64(at.self[rootLayer]), float64(at.total)))
	set("trace.total_s", "s", at.total.Seconds())

	// Overhead: process CPU per protected byte, traced against the
	// untraced reference phase just before.
	r0, r1 := m.sr.snaps[k-1], s0
	refCPU := ratio(r1.cpu-r0.cpu, float64(m.sr.accs[k-1].bytes))
	trCPU := ratio(s1.cpu-s0.cpu, float64(acc.bytes))
	set("trace.overhead_pct", "%", 100*(ratio(trCPU, refCPU)-1))

	// A percentile with fewer than minBeyond samples above it reads 0 and
	// is listed here instead.
	detail["omitted"] = omitted
	detail["samples"] = map[string]uint64{"ike.exchange_ms": durs.n}
	detail["attribution"] = at.String()
	return nil
}
