// Package workload generates deterministic trace-shaped offered load
// for the chaos soaks. The paper's VPN carried real enterprise traffic
// between campuses; the published follow-on measurement literature
// (DimDim-style web conferencing analyses) shows what that traffic
// looks like: a mix of many small steady conferencing packets and
// bursty heavy-tailed bulk transfers, modulated by a diurnal swell and
// punctuated by flash crowds. A Generator reproduces that shape from a
// single seed so a chaos run replays bit-identically: same seed, same
// packet trace, same fault interleaving.
//
// Time is virtual: one Tick is one scheduling quantum. Each tick the
// generator draws a Poisson packet count whose rate follows
//
//	rate(t) = BaseRate x diurnal(t) x flash(t)
//
// and deals those packets to the currently-bursting flows. Flow
// classes:
//
//   - Conferencing: long-lived, mostly-on flows of small packets
//     (bimodal audio/video-keyframe sizes), the "many small flows"
//     mass of the trace.
//   - Bulk: on/off flows whose packet sizes follow a bounded Pareto —
//     the heavy tail that dominates bytes while being a minority of
//     packets.
package workload

import (
	"math"

	"qkd/internal/rng"
)

// Class labels a flow's traffic shape.
type Class int

const (
	// Conferencing flows send many small packets at a steady clip.
	Conferencing Class = iota
	// Bulk flows send heavy-tailed packet trains in on/off bursts.
	Bulk
)

func (c Class) String() string {
	if c == Conferencing {
		return "conferencing"
	}
	return "bulk"
}

// Packet is one generated packet: which tunnel carries it, the flow
// class it belongs to, and its inner (pre-encapsulation) size.
type Packet struct {
	Tunnel int
	Class  Class
	Bytes  int
}

// Config shapes the generated trace. Zero values select the defaults
// noted on each field.
type Config struct {
	// Seed drives every draw; the same seed reproduces the same trace.
	Seed uint64
	// Tunnels is the number of tunnels load is spread over (default 8).
	Tunnels int
	// Flows is the number of concurrent flows (default 4 per tunnel).
	Flows int
	// ConferencingFraction of flows are Conferencing (default 0.7).
	ConferencingFraction float64
	// BaseRate is the mean packets per tick at the diurnal midpoint
	// with no flash crowd active (default 48).
	BaseRate float64
	// DiurnalPeriod is the tick count of one diurnal cycle
	// (default 256).
	DiurnalPeriod int
	// DiurnalAmplitude scales the sinusoidal swell: rate swings between
	// (1-amp) and (1+amp) of BaseRate (default 0.5).
	DiurnalAmplitude float64
	// FlashEvery is the mean gap in ticks between flash crowds
	// (default 96).
	FlashEvery int
	// FlashFactor multiplies the rate while a flash crowd is active
	// (default 6).
	FlashFactor float64
	// FlashTicks is how long a flash crowd lasts (default 4).
	FlashTicks int
	// MaxBytes truncates the bulk Pareto tail, the wire MTU minus
	// encapsulation overhead (default 1400).
	MaxBytes int
}

func (c Config) withDefaults() Config {
	if c.Tunnels <= 0 {
		c.Tunnels = 8
	}
	if c.Flows <= 0 {
		c.Flows = 4 * c.Tunnels
	}
	if c.ConferencingFraction <= 0 || c.ConferencingFraction > 1 {
		c.ConferencingFraction = 0.7
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 48
	}
	if c.DiurnalPeriod <= 0 {
		c.DiurnalPeriod = 256
	}
	if c.DiurnalAmplitude <= 0 || c.DiurnalAmplitude >= 1 {
		c.DiurnalAmplitude = 0.5
	}
	if c.FlashEvery <= 0 {
		c.FlashEvery = 96
	}
	if c.FlashFactor < 1 {
		c.FlashFactor = 6
	}
	if c.FlashTicks <= 0 {
		c.FlashTicks = 4
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1400
	}
	return c
}

// Bulk packet sizes follow a bounded Pareto on [paretoMin, MaxBytes].
// alpha just above 1 puts most of the byte volume in the tail, the
// regime every flow-size measurement study reports.
// The floor sits at a typical data-segment size: bulk transfers send
// few tiny packets, and the tail still reaches the MTU cap.
const (
	paretoMin   = 300
	paretoAlpha = 1.2
)

// flow is one traffic source: its class, the tunnel it rides, and its
// on/off burst state (remaining ticks in the current state).
type flow struct {
	class  Class
	tunnel int
	on     bool
	left   int
}

// Generator produces the trace. Not safe for concurrent use; drive it
// from one goroutine and fan the packets out afterwards.
type Generator struct {
	cfg   Config
	rand  *rng.SplitMix64
	flows []flow
	tick  int
	// flash crowd state
	nextFlash  int
	flashUntil int
	// running totals for reporting
	pkts  [2]uint64
	bytes [2]uint64
}

// New builds a Generator from cfg (zero fields take defaults).
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg:  cfg,
		rand: rng.NewSplitMix64(cfg.Seed ^ 0x7A3C_9E15_D00D_F00D),
	}
	nConf := int(math.Round(float64(cfg.Flows) * cfg.ConferencingFraction))
	for i := 0; i < cfg.Flows; i++ {
		f := flow{tunnel: i % cfg.Tunnels, class: Bulk}
		if i < nConf {
			f.class = Conferencing
		}
		// Start each flow at a random point of its on/off cycle so the
		// first tick is not a synchronized burst.
		f.on = g.rand.Float64() < onFraction(f.class)
		f.left = 1 + g.rand.Intn(g.meanTicks(f.class, f.on))
		g.flows = append(g.flows, f)
	}
	g.nextFlash = 1 + g.rand.Intn(2*cfg.FlashEvery)
	return g
}

// onFraction is the steady-state fraction of time a flow of the class
// spends bursting.
func onFraction(c Class) float64 {
	if c == Conferencing {
		return 0.9
	}
	return 0.35
}

// meanTicks is the mean dwell time of a flow state (on or off).
func (g *Generator) meanTicks(c Class, on bool) int {
	if c == Conferencing {
		if on {
			return 60
		}
		return 6
	}
	if on {
		return 7
	}
	return 13
}

// Tick advances virtual time one quantum and appends that tick's
// packets to out, returning the extended slice.
func (g *Generator) Tick(out []Packet) []Packet {
	t := g.tick
	g.tick++

	// Flash crowd process: a renewal process with mean gap FlashEvery.
	if t >= g.nextFlash && t >= g.flashUntil {
		g.flashUntil = t + g.cfg.FlashTicks
		gap := g.cfg.FlashTicks + 1 + g.rand.Poisson(float64(g.cfg.FlashEvery))
		g.nextFlash = t + gap
	}

	// Advance flow burst states.
	for i := range g.flows {
		f := &g.flows[i]
		f.left--
		if f.left <= 0 {
			f.on = !f.on
			f.left = 1 + g.rand.Poisson(float64(g.meanTicks(f.class, f.on)))
		}
	}
	var onIdx []int
	for i := range g.flows {
		if g.flows[i].on {
			onIdx = append(onIdx, i)
		}
	}
	if len(onIdx) == 0 {
		// Never let the trace go fully silent: wake one flow.
		i := g.rand.Intn(len(g.flows))
		g.flows[i].on = true
		g.flows[i].left = 1 + g.rand.Poisson(float64(g.meanTicks(g.flows[i].class, true)))
		onIdx = append(onIdx, i)
	}

	rate := g.cfg.BaseRate * g.diurnal(t)
	if t < g.flashUntil {
		rate *= g.cfg.FlashFactor
	}
	n := g.rand.Poisson(rate)
	for k := 0; k < n; k++ {
		f := &g.flows[onIdx[g.rand.Intn(len(onIdx))]]
		size := g.drawSize(f.class)
		out = append(out, Packet{Tunnel: f.tunnel, Class: f.class, Bytes: size})
		g.pkts[f.class]++
		g.bytes[f.class] += uint64(size)
	}
	return out
}

// diurnal is the sinusoidal rate swell, 1±DiurnalAmplitude over one
// DiurnalPeriod.
func (g *Generator) diurnal(t int) float64 {
	phase := 2 * math.Pi * float64(t%g.cfg.DiurnalPeriod) / float64(g.cfg.DiurnalPeriod)
	return 1 + g.cfg.DiurnalAmplitude*math.Sin(phase)
}

// drawSize samples one packet size for the class.
func (g *Generator) drawSize(c Class) int {
	if c == Conferencing {
		// Bimodal: mostly small audio frames, occasionally a video
		// keyframe near the MTU.
		if g.rand.Float64() < 0.85 {
			return 48 + g.rand.Intn(200)
		}
		hi := g.cfg.MaxBytes
		return hi - g.rand.Intn(hi/3)
	}
	// Bounded Pareto via inverse CDF.
	u := g.rand.Float64()
	xm, xM := float64(paretoMin), float64(g.cfg.MaxBytes)
	ratio := math.Pow(xm/xM, paretoAlpha)
	x := xm / math.Pow(1-u*(1-ratio), 1/paretoAlpha)
	if x > xM {
		x = xM
	}
	return int(x)
}

// FlashActive reports whether a flash crowd covers the NEXT tick.
func (g *Generator) FlashActive() bool { return g.tick < g.flashUntil }

// Totals reports cumulative packet and byte counts per class.
func (g *Generator) Totals() (pkts, bytes [2]uint64) { return g.pkts, g.bytes }

// Quantile returns the q-quantile (0..1) of xs, which MUST be sorted
// ascending. Shared by the workload tests and the E17 SLO gate.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)-1))
	return xs[i]
}
