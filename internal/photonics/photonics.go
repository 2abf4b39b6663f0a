// Package photonics simulates the physical layer of the BBN
// weak-coherent QKD link: the attenuated 1550 nm source, the
// Mach-Zehnder interferometer pair, the telco fiber, and the gated,
// cooled APD detectors.
//
// The simulation is a per-pulse Monte Carlo over the quantities that the
// protocol stack above can actually observe:
//
//   - photon number per pulse: Poisson with mean MeanPhotons (mu). The
//     multi-photon tail of this distribution is exactly the surface the
//     beamsplitting / PNS attacks of Section 6 exploit, so it is modelled
//     faithfully rather than approximated away.
//   - phase encoding: Alice applies one of four phases in units of pi/2
//     (value*pi + basis*pi/2); Bob selects one of two (basis*pi/2). A
//     matched basis routes the photon to the correct detector up to the
//     interferometer visibility; a mismatched basis routes it uniformly
//     at random — precisely the behaviour Figs. 4-7 derive from the
//     interferometer optics.
//   - fiber: each photon independently survives with probability
//     10^-(atten*km + systemLoss)/10.
//   - detectors: efficiency eta, per-gate dark-count probability, and a
//     double-click policy (both APDs firing in one gate).
//
// The bright-pulse (1300 nm) framing channel is abstracted into
// agreement on (frame, slot) coordinates; see package qframe.
//
// Two sampling engines implement the model behind one interface
// (TransmitEngine): the exact per-pulse Monte Carlo above, and a
// batched fast path that draws aggregate per-frame click totals from
// the closed-form per-pulse probabilities and then samples only the
// clicked slots — the same distribution at a fraction of the cost,
// since at mu = 0.1 some 97 % of pulses are vacuum. Links use the
// batched path automatically and fall back to the exact path whenever
// individual pulses must be observable: an eavesdropper tap, detector
// dead time, or a cut fiber.
package photonics

import (
	"fmt"
	"math"
	"slices"

	"qkd/internal/qframe"
	"qkd/internal/rng"
)

// DoubleClickPolicy selects what Bob records when both detectors fire
// in the same gate.
type DoubleClickPolicy int

const (
	// DiscardDoubleClicks records a DoubleClick symbol, which sifting
	// then drops. This is the conservative choice.
	DiscardDoubleClicks DoubleClickPolicy = iota
	// RandomizeDoubleClicks records a uniformly random bit value, the
	// convention required by some security proofs.
	RandomizeDoubleClicks
)

// Params configures a simulated link. The defaults (see DefaultParams)
// reproduce the paper's operating point: 1 MHz pulse rate, mu = 0.1,
// 10 km of fiber, and a 6-8 % QBER.
type Params struct {
	PulseRateHz   float64           // trigger rate (paper: 1 MHz, max 5 MHz)
	MeanPhotons   float64           // mu, mean photon number per dim pulse (paper: 0.1)
	FiberKm       float64           // fiber length (paper: 10 km spool)
	AttenDBPerKm  float64           // fiber attenuation at 1550 nm (0.2 dB/km typical)
	SystemLossDB  float64           // couplers, interferometer arms, connectors
	DetectorEff   float64           // APD quantum efficiency eta (InGaAs ~ 0.1)
	DarkCountProb float64           // per gate, per detector
	Visibility    float64           // interferometer fringe visibility V
	DoubleClicks  DoubleClickPolicy // what to do when both APDs fire
	DeadGates     int               // gates a detector stays dead after a click
}

// DefaultParams returns the paper's operating point. With these values
// the simulated link runs at roughly the QBER the paper reports (6-8 %)
// and a sifted-key rate in the low kilobits/second at 10 km.
func DefaultParams() Params {
	return Params{
		PulseRateHz:   1e6,
		MeanPhotons:   0.1,
		FiberKm:       10,
		AttenDBPerKm:  0.2,
		SystemLossDB:  5.0,
		DetectorEff:   0.10,
		DarkCountProb: 1e-4,
		Visibility:    0.93,
		DoubleClicks:  DiscardDoubleClicks,
		DeadGates:     0,
	}
}

// Validate reports a configuration error, if any.
func (p Params) Validate() error {
	switch {
	case p.PulseRateHz <= 0:
		return fmt.Errorf("photonics: pulse rate %v must be positive", p.PulseRateHz)
	case p.MeanPhotons < 0:
		return fmt.Errorf("photonics: mean photon number %v must be non-negative", p.MeanPhotons)
	case p.FiberKm < 0:
		return fmt.Errorf("photonics: fiber length %v must be non-negative", p.FiberKm)
	case p.DetectorEff < 0 || p.DetectorEff > 1:
		return fmt.Errorf("photonics: detector efficiency %v out of [0,1]", p.DetectorEff)
	case p.DarkCountProb < 0 || p.DarkCountProb > 1:
		return fmt.Errorf("photonics: dark count probability %v out of [0,1]", p.DarkCountProb)
	case p.Visibility < 0 || p.Visibility > 1:
		return fmt.Errorf("photonics: visibility %v out of [0,1]", p.Visibility)
	}
	return nil
}

// ChannelTransmission returns the probability that a single photon
// survives the fiber and system losses.
func (p Params) ChannelTransmission() float64 {
	lossDB := p.AttenDBPerKm*p.FiberKm + p.SystemLossDB
	return math.Pow(10, -lossDB/10)
}

// OpticalErrorProb returns the probability a matched-basis photon exits
// toward the wrong detector, (1-V)/2 for fringe visibility V.
func (p Params) OpticalErrorProb() float64 {
	return (1 - p.Visibility) / 2
}

// MultiPhotonProb returns P[k >= 2] for the Poisson pulse, the fraction
// of pulses vulnerable to beamsplitting attacks.
func (p Params) MultiPhotonProb() float64 {
	mu := p.MeanPhotons
	return 1 - math.Exp(-mu) - mu*math.Exp(-mu)
}

// NonVacuumProb returns P[k >= 1], used to condition the received-based
// multi-photon charge during entropy estimation.
func (p Params) NonVacuumProb() float64 {
	return 1 - math.Exp(-p.MeanPhotons)
}

// ExpectedClickProb returns the per-pulse probability that Bob records
// a usable click (signal or dark), to first order.
func (p Params) ExpectedClickProb() float64 {
	sig := 1 - math.Exp(-p.MeanPhotons*p.ChannelTransmission()*p.DetectorEff)
	dark := 2 * p.DarkCountProb
	return sig + dark - sig*dark
}

// ExpectedSiftedFraction returns the expected sifted bits per pulse:
// click probability times the 1/2 basis-agreement factor of BB84.
func (p Params) ExpectedSiftedFraction() float64 {
	return p.ExpectedClickProb() / 2
}

// ExpectedQBER returns the first-order QBER prediction: optical errors
// on signal clicks plus 50 % errors on dark-count clicks.
func (p Params) ExpectedQBER() float64 {
	sig := 1 - math.Exp(-p.MeanPhotons*p.ChannelTransmission()*p.DetectorEff)
	dark := 2 * p.DarkCountProb
	tot := sig + dark
	if tot == 0 {
		return 0
	}
	return (p.OpticalErrorProb()*sig + 0.5*dark) / tot
}

// Pulse is one dim-laser emission in flight: a photon-number state
// carrying Alice's phase modulation. Attacks manipulate pulses.
type Pulse struct {
	Slot    uint32
	Photons int
	Basis   qframe.Basis
	Value   uint8
}

// Tap is an eavesdropper's hook into the quantum channel. Intercept is
// called for every pulse after it leaves Alice and before it enters the
// fiber; the attack may mutate the pulse (measure-and-resend changes
// basis/value/photon count, beamsplitting removes photons, a fiber cut
// zeroes them). Implementations live in package eve.
type Tap interface {
	// Name identifies the attack in logs and experiment output.
	Name() string
	// Intercept may mutate p in place.
	Intercept(p *Pulse, r *rng.SplitMix64)
}

// FrameAware is implemented by taps that track per-frame state; the
// link announces each frame boundary before transmitting its pulses.
type FrameAware interface {
	BeginFrame(id uint64)
}

// Stats accumulates per-link counters that experiments report.
type Stats struct {
	Pulses       uint64 // pulses triggered
	PhotonsSent  uint64 // total photons emitted by Alice
	MultiPhoton  uint64 // pulses with >= 2 photons leaving Alice
	Arrived      uint64 // photons surviving the channel
	SingleClicks uint64 // gates with exactly one APD firing
	DoubleClicks uint64 // gates with both APDs firing
	DarkClicks   uint64 // clicks attributable to dark counts alone
}

// TransmitEngine is one strategy for simulating a frame of pulses.
// Two engines exist behind this interface:
//
//   - Exact: the per-pulse Monte Carlo, drawing photon numbers, fiber
//     survival, interferometer routing and detector behaviour for every
//     pulse slot. It is the reference semantics, and the only engine
//     that can host eavesdropper taps, detector dead time, and fiber
//     cuts — anything that needs to see (or perturb) individual pulses.
//   - Batched: the sampling-equivalent fast path. At mu = 0.1 roughly
//     97 % of pulses are vacuum, so instead of four-plus PRNG draws per
//     slot it draws aggregate per-frame counts from the closed-form
//     per-pulse outcome probabilities (each count an exact binomial)
//     and then samples only the clicked slots. The per-slot outcome
//     distribution is identical to the exact engine's; only the
//     reporting-only Stats counters (PhotonsSent, MultiPhoton, Arrived)
//     are drawn independently of the clicks rather than jointly.
//
// Links pick the engine automatically (see Link.TransmitFrame);
// SetEngine pins one for tests and benchmarks.
type TransmitEngine interface {
	// Name identifies the engine in logs and benchmarks.
	Name() string
	// Transmit simulates one frame of `slots` pulses on the link.
	Transmit(l *Link, id uint64, slots int) (*qframe.TxFrame, *qframe.RxFrame)
}

// Exact returns the per-pulse Monte Carlo engine.
func Exact() TransmitEngine { return exactEngine{} }

// Batched returns the aggregate-count fast-path engine.
func Batched() TransmitEngine { return batchedEngine{} }

// Link is a simulated quantum channel between an Alice and a Bob.
// It is not safe for concurrent use; each link belongs to one
// protocol-engine pair.
type Link struct {
	params Params
	tap    Tap
	// Independent randomness for Alice's modulator, the channel, and
	// Bob's basis selector, so that attacks which consume randomness
	// do not perturb the honest parties' choices.
	aliceRand *rng.SplitMix64
	chanRand  *rng.SplitMix64
	bobRand   *rng.SplitMix64
	stats     Stats
	dead      [2]int // remaining dead gates per detector
	cut       bool
	engine    TransmitEngine // pinned engine; nil selects automatically
}

// NewLink builds a link with the given parameters, seeded
// deterministically from seed. It panics if params are invalid, since
// a bad configuration is a programming error in this codebase.
func NewLink(params Params, seed uint64) *Link {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Link{
		params:    params,
		aliceRand: rng.NewSplitMix64(seed*2654435761 + 1),
		chanRand:  rng.NewSplitMix64(seed*40503 + 2),
		bobRand:   rng.NewSplitMix64(seed*2246822519 + 3),
	}
}

// Stats returns a snapshot of the accumulated counters.
func (l *Link) Stats() Stats { return l.stats }

// SetTap installs (or removes, with nil) an eavesdropper on the
// quantum channel.
func (l *Link) SetTap(t Tap) { l.tap = t }

// Cut severs the fiber: no photons arrive until Restore. The paper's
// robustness discussion (Section 2, Section 8) revolves around exactly
// this failure.
func (l *Link) Cut() { l.cut = true }

// Restore repairs a cut fiber.
func (l *Link) Restore() { l.cut = false }

// IsCut reports whether the fiber is currently severed.
func (l *Link) IsCut() bool { return l.cut }

// SetEngine pins a transmit engine (nil restores automatic selection).
// Pinning Batched on a link with a tap installed silently bypasses the
// tap — automatic selection never does this; pin only in tests and
// benchmarks that know the link is honest.
func (l *Link) SetEngine(e TransmitEngine) { l.engine = e }

// Engine returns the engine the next TransmitFrame will use: the pinned
// one, or else the exact per-pulse path whenever something needs to see
// individual pulses (an installed tap, detector dead time, a cut
// fiber), and the batched fast path otherwise.
func (l *Link) Engine() TransmitEngine {
	if l.engine != nil {
		return l.engine
	}
	if l.tap != nil || l.cut || l.params.DeadGates > 0 {
		return exactEngine{}
	}
	return batchedEngine{}
}

// TransmitFrame simulates one frame of `slots` pulses and returns
// Alice's transmitted symbols and Bob's detection record, dispatching
// to the active TransmitEngine.
func (l *Link) TransmitFrame(id uint64, slots int) (*qframe.TxFrame, *qframe.RxFrame) {
	return l.Engine().Transmit(l, id, slots)
}

// ---------------------------------------------------------------------
// Exact engine: per-pulse Monte Carlo
// ---------------------------------------------------------------------

type exactEngine struct{}

func (exactEngine) Name() string { return "exact" }

func (exactEngine) Transmit(l *Link, id uint64, slots int) (*qframe.TxFrame, *qframe.RxFrame) {
	tx := qframe.NewTxFrame(id, slots)
	rx := qframe.NewRxFrame(id, slots)
	if f, ok := l.tap.(FrameAware); ok {
		f.BeginFrame(id)
	}
	for s := 0; s < slots; s++ {
		slot := uint32(s)
		basis := qframe.Basis(l.aliceRand.Bit())
		value := uint8(l.aliceRand.Bit())
		tx.SetSymbol(s, basis, value)

		pulse := Pulse{
			Slot:    slot,
			Photons: l.chanRand.Poisson(l.params.MeanPhotons),
			Basis:   basis,
			Value:   value,
		}
		l.stats.Pulses++
		l.stats.PhotonsSent += uint64(pulse.Photons)
		if pulse.Photons >= 2 {
			l.stats.MultiPhoton++
		}

		if l.tap != nil {
			l.tap.Intercept(&pulse, l.chanRand)
		}
		if l.cut {
			pulse.Photons = 0
		}

		det := l.detect(&pulse)
		if det.Result != qframe.NoClick {
			rx.Record(det.Slot, det.Basis, det.Result)
		}
	}
	return tx, rx
}

// detect runs the channel and Bob's receiver for one pulse.
func (l *Link) detect(p *Pulse) qframe.RxSymbol {
	bobBasis := qframe.Basis(l.bobRand.Bit())
	out := qframe.RxSymbol{Slot: p.Slot, Basis: bobBasis, Result: qframe.NoClick}

	trans := l.params.ChannelTransmission()
	eOpt := l.params.OpticalErrorProb()

	var fired [2]bool
	// Signal photons.
	for i := 0; i < p.Photons; i++ {
		if l.chanRand.Float64() >= trans {
			continue // lost in the fiber
		}
		l.stats.Arrived++
		// Route through Bob's interferometer.
		var target int
		if bobBasis == p.Basis {
			target = int(p.Value)
			if l.bobRand.Float64() < eOpt {
				target ^= 1 // visibility error
			}
		} else {
			// Incompatible bases: the photon strikes one of the two
			// APDs at random (Section 4).
			target = l.bobRand.Bit()
		}
		if l.bobRand.Float64() < l.params.DetectorEff {
			fired[target] = true
		}
	}
	// Dark counts, independent per detector per gate.
	darkOnly := !fired[0] && !fired[1]
	for d := 0; d < 2; d++ {
		if l.bobRand.Float64() < l.params.DarkCountProb {
			fired[d] = true
		}
	}

	// Dead-time gating.
	for d := 0; d < 2; d++ {
		if l.dead[d] > 0 {
			l.dead[d]--
			fired[d] = false
		}
	}

	switch {
	case fired[0] && fired[1]:
		l.stats.DoubleClicks++
		if l.params.DoubleClicks == RandomizeDoubleClicks {
			if l.bobRand.Bit() == 0 {
				out.Result = qframe.ClickD0
			} else {
				out.Result = qframe.ClickD1
			}
		} else {
			out.Result = qframe.DoubleClick
		}
	case fired[0]:
		out.Result = qframe.ClickD0
	case fired[1]:
		out.Result = qframe.ClickD1
	}

	if out.Result == qframe.ClickD0 || out.Result == qframe.ClickD1 {
		l.stats.SingleClicks++
		if darkOnly {
			l.stats.DarkClicks++
		}
	}
	if out.Result != qframe.NoClick && l.params.DeadGates > 0 {
		for d := 0; d < 2; d++ {
			if fired[d] {
				l.dead[d] = l.params.DeadGates
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Batched engine: aggregate counts, then sample only the clicked slots
// ---------------------------------------------------------------------

type batchedEngine struct{}

func (batchedEngine) Name() string { return "batched" }

// Detection outcome categories a non-vacuum gate can land in. Per slot
// these are mutually exclusive; their per-slot probabilities follow in
// closed form from the same Poisson/thinning model the exact engine
// samples pulse by pulse.
const (
	catMatchedCorrect = iota // bases matched, single click, Alice's bit
	catMatchedWrong          // bases matched, single click, flipped bit
	catMatchedDouble         // bases matched, both APDs fired
	catMisSingle             // bases differed, single click (uniform bit)
	catMisDouble             // bases differed, both APDs fired
	numCats
)

// slotProbs holds the per-slot outcome distribution and the dark-only
// fractions within each clicking category.
type slotProbs struct {
	cat      [numCats]float64 // unconditional per-slot probability
	darkFrac [numCats]float64 // P[click is dark-only | category]
}

// batchProbs derives the closed-form per-slot outcome probabilities.
// Derivation: k ~ Poisson(mu) photons each survive the fiber w.p. T and
// fire a detector w.p. eta, so photons *detected* at each APD are
// independent Poissons obtained by thinning lam = mu*T*eta: with
// matched bases the split is (1-e, e) across (correct, wrong) for
// optical error probability e; with mismatched bases it is (1/2, 1/2).
// An APD fires iff its Poisson count is nonzero or its dark count
// (prob d) fires; the per-gate categories follow by independence.
func batchProbs(p Params, cut bool) slotProbs {
	lam := p.MeanPhotons * p.ChannelTransmission() * p.DetectorEff
	if cut {
		lam = 0
	}
	e := p.OpticalErrorProb()
	d := p.DarkCountProb

	pC := 1 - math.Exp(-lam*(1-e)) // signal fires correct APD (matched)
	pW := 1 - math.Exp(-lam*e)     // signal fires wrong APD (matched)
	pH := 1 - math.Exp(-lam/2)     // signal fires either APD (mismatched)

	noC := (1 - pC) * (1 - d) // correct APD silent, incl. darks
	noW := (1 - pW) * (1 - d)
	noH := (1 - pH) * (1 - d)

	var sp slotProbs
	// Conditional on matched bases (probability 1/2 per slot):
	qmc := (1 - noC) * noW
	qmw := (1 - noW) * noC
	qmd := (1 - noC) * (1 - noW)
	// Conditional on mismatched bases:
	qms := 2 * (1 - noH) * noH
	qsd := (1 - noH) * (1 - noH)
	sp.cat = [numCats]float64{0.5 * qmc, 0.5 * qmw, 0.5 * qmd, 0.5 * qms, 0.5 * qsd}

	// Dark-only fractions: the click happened with zero signal photons
	// detected, the sub-event the DarkClicks counter tracks.
	vac := (1 - pC) * (1 - pW) // no signal at either APD (matched)
	vacH := (1 - pH) * (1 - pH)
	sp.darkFrac = [numCats]float64{
		safeDiv(vac*d*(1-d), qmc),
		safeDiv(vac*d*(1-d), qmw),
		safeDiv(vac*d*d, qmd),
		safeDiv(vacH*2*d*(1-d), qms),
		safeDiv(vacH*d*d, qsd),
	}
	return sp
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (batchedEngine) Transmit(l *Link, id uint64, slots int) (*qframe.TxFrame, *qframe.RxFrame) {
	// Alice's modulation: two packed random columns, 64 slots per draw.
	tx := qframe.NewTxFrameFromColumns(id, l.aliceRand.Bits(slots), l.aliceRand.Bits(slots))
	rx := qframe.NewRxFrame(id, slots)

	// Source and propagation counters (reporting only — drawn from the
	// same marginals as the exact engine, independently of the clicks).
	l.stats.Pulses += uint64(slots)
	sent := l.chanRand.Poisson(float64(slots) * l.params.MeanPhotons)
	l.stats.PhotonsSent += uint64(sent)
	l.stats.MultiPhoton += uint64(l.chanRand.Binomial(slots, l.params.MultiPhotonProb()))
	if !l.cut {
		l.stats.Arrived += uint64(l.chanRand.Binomial(sent, l.params.ChannelTransmission()))
	}

	// Aggregate category counts: a multinomial over the per-slot
	// outcome distribution, drawn as sequential conditional binomials.
	sp := batchProbs(l.params, l.cut)
	var counts [numCats]int
	remaining, rest := slots, 1.0
	for c := 0; c < numCats && remaining > 0 && rest > 0; c++ {
		q := sp.cat[c] / rest
		if q > 1 {
			q = 1
		}
		counts[c] = l.chanRand.Binomial(remaining, q)
		remaining -= counts[c]
		rest -= sp.cat[c]
	}
	total := 0
	for _, c := range counts {
		total += c
	}

	// Choose which slots clicked: `total` distinct slots uniformly at
	// random, via a sparse Fisher-Yates (O(total) time and memory).
	// The first counts[0] picks are category 0, and so on — the picks
	// arrive in uniformly random order, so no separate shuffle is
	// needed. Keys pack slot and category for an in-order emit.
	displaced := make(map[int]int, total)
	keys := make([]uint64, 0, total)
	cat, catLeft := 0, counts[0]
	for i := 0; i < total; i++ {
		for catLeft == 0 {
			cat++
			catLeft = counts[cat]
		}
		j := i + l.bobRand.Intn(slots-i)
		slot, ok := displaced[j]
		if !ok {
			slot = j
		}
		cur, ok := displaced[i]
		if !ok {
			cur = i
		}
		displaced[j] = cur
		keys = append(keys, uint64(slot)<<3|uint64(cat))
		catLeft--
	}
	slices.Sort(keys)

	randomize := l.params.DoubleClicks == RandomizeDoubleClicks
	for _, k := range keys {
		slot := int(k >> 3)
		ab, av := tx.Basis(slot), tx.Value(slot)
		switch k & 7 {
		case catMatchedCorrect:
			rx.Record(uint32(slot), ab, qframe.ClickFor(av))
		case catMatchedWrong:
			rx.Record(uint32(slot), ab, qframe.ClickFor(av^1))
		case catMisSingle:
			rx.Record(uint32(slot), ab^1, qframe.ClickFor(uint8(l.bobRand.Bit())))
		case catMatchedDouble, catMisDouble:
			basis := ab
			if k&7 == catMisDouble {
				basis = ab ^ 1
			}
			if randomize {
				rx.Record(uint32(slot), basis, qframe.ClickFor(uint8(l.bobRand.Bit())))
			} else {
				rx.Record(uint32(slot), basis, qframe.DoubleClick)
			}
		}
	}

	// Click counters, mirroring the exact engine's accounting: under
	// the randomize policy a double-gated click is recorded (and
	// counted) as a single click too.
	singles := counts[catMatchedCorrect] + counts[catMatchedWrong] + counts[catMisSingle]
	doubles := counts[catMatchedDouble] + counts[catMisDouble]
	l.stats.SingleClicks += uint64(singles)
	l.stats.DoubleClicks += uint64(doubles)
	darkCats := []int{catMatchedCorrect, catMatchedWrong, catMisSingle}
	if randomize {
		l.stats.SingleClicks += uint64(doubles)
		darkCats = append(darkCats, catMatchedDouble, catMisDouble)
	}
	for _, c := range darkCats {
		l.stats.DarkClicks += uint64(l.chanRand.Binomial(counts[c], sp.darkFrac[c]))
	}
	return tx, rx
}

// MeasuredQBER compares a transmitted and received frame pair and
// returns (siftedBits, errorBits): the slots where Bob registered a
// usable click and chose Alice's basis, and among those, how many bit
// values disagree. This is ground truth available only to the
// simulator (and to tests); the protocol stack must instead estimate
// error rates through the Cascade exchange.
func MeasuredQBER(tx *qframe.TxFrame, rx *qframe.RxFrame) (sifted, errors int) {
	slots, bases, values := rx.Usable()
	for i, slot := range slots {
		if tx.Basis(int(slot)) != qframe.Basis(bases.Get(i)) {
			continue
		}
		sifted++
		if tx.Value(int(slot)) != uint8(values.Get(i)) {
			errors++
		}
	}
	return sifted, errors
}
