package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/channel"
	"qkd/internal/core"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/photonics"
	"qkd/internal/qframe"
	"qkd/internal/vpn"
)

// labParams is the lab operating point the experiments use (the paper's
// mu = 0.1 source on a short, efficient bench with 4 % optical error):
// about 190 distilled bits per 10k-pulse frame with 4096-bit batches.
func labParams() photonics.Params {
	p := photonics.DefaultParams()
	p.FiberKm = 0
	p.SystemLossDB = 0
	p.DetectorEff = 1
	p.DarkCountProb = 1e-5
	p.Visibility = 0.96
	return p
}

const (
	frameSlots = core.FrameSlotsDefault
	batchBits  = 4096
)

// deposit is one entry of the key-arrival timeline: a frame (or a
// synthetic pre-charge) and site A's cumulative ingested bits once it
// was deposited. Times are nanoseconds since the run's epoch.
type deposit struct {
	start, end int64
	cum        uint64
}

// distiller runs the QKD engines the way core.NewSessionWithPools wires
// them, over instrumented seams: Bob's public-channel end, whose message
// types mark the stage boundaries along his engine path, and both
// engines' key sinks, which hold each distilled batch until confirm
// deposits it into the sites' key services (the KDS ingest). Alice's
// engine runs on its own goroutine because the engines exchange messages
// synchronously.
type distiller struct {
	link      *photonics.Link
	alice     *core.Alice
	bob       *core.Bob
	aliceConn channel.Conn
	bobConn   channel.Conn
	aliceKeys *heldKeys
	bobKeys   *heldKeys
	kds       *kms.Service // site A's service, for the deposit timeline
	epoch     time.Time

	next      uint64
	txCh      chan *qframe.TxFrame
	aliceErr  chan error
	aliceExit chan struct{}

	// tr is the active tracer (nil outside a traced window); stage is the
	// name of the open stage span on Bob's path, "" when none.
	tr    *tracer
	stage string

	frames     uint64
	detections uint64
	ecMsgs     uint64
	discarded  uint64 // batches the engines distilled to different keys
	deposits   []deposit
}

func newDistiller(net *vpn.Network, seed uint64, epoch time.Time) *distiller {
	params := labParams()
	cfg := core.Config{BatchBits: batchBits}
	cfgA, cfgB := cfg, cfg
	cfgA.Seed = seed ^ 0xA11CE
	cfgB.Seed = seed ^ 0xB0B
	cfgA.MultiPhotonProb, cfgB.MultiPhotonProb = params.MultiPhotonProb(), params.MultiPhotonProb()
	cfgA.NonVacuumProb, cfgB.NonVacuumProb = params.NonVacuumProb(), params.NonVacuumProb()

	ca, cb := channel.MemPair(256)
	d := &distiller{
		link:      photonics.NewLink(params, seed),
		aliceConn: ca,
		bobConn:   cb,
		kds:       net.A.KDS,
		epoch:     epoch,
		txCh:      make(chan *qframe.TxFrame),
		aliceErr:  make(chan error, 1),
		aliceExit: make(chan struct{}),
	}
	d.aliceKeys = &heldKeys{Pool: net.A.Pool}
	d.bobKeys = &heldKeys{Pool: net.B.Pool, onDeposit: func() { d.setStage("") }}
	d.alice = core.NewAlice(ca, d.aliceKeys, cfgA)
	d.bob = core.NewBob(&stageConn{Conn: cb, d: d}, d.bobKeys, cfgB)
	go func() {
		defer close(d.aliceExit)
		for tx := range d.txCh {
			err := d.alice.HandleFrame(tx)
			if err != nil {
				d.aliceConn.Close() // unblock Bob mid-exchange
			}
			d.aliceErr <- err
		}
	}()
	return d
}

// frame transmits one frame and runs both engines over it.
func (d *distiller) frame() error {
	start := time.Since(d.epoch)
	d.tr.begin("photonics.frame")
	tx, rx := d.link.TransmitFrame(d.next, frameSlots)
	d.tr.end()
	d.next++
	d.frames++
	d.detections += uint64(rx.Count())

	d.txCh <- tx
	d.tr.begin("core.frame")
	d.setStage("sifting.frame")
	err := d.bob.HandleFrame(rx)
	if err != nil {
		d.bobConn.Close()
	}
	d.setStage("")
	aerr := <-d.aliceErr
	d.tr.end()
	if err != nil {
		return fmt.Errorf("bob: %w", err)
	}
	if aerr != nil {
		return fmt.Errorf("alice: %w", aerr)
	}
	if err := d.confirm(); err != nil {
		return err
	}
	d.deposits = append(d.deposits, deposit{start: int64(start), end: int64(time.Since(d.epoch)), cum: d.kds.Stats().DepositedBits})
	return nil
}

// confirm pairs the batches the two engines distilled during a frame and
// deposits each equal pair into the sites' key services. Cascade can
// leave a residual error neither engine detects, and the engines have no
// key-confirmation step; a deployed link compares key hashes and drops
// such a batch on both ends, which this direct comparison stands in for.
// Without it one SA in a few thousand gets unequal keys and its packets
// fail integrity checks.
func (d *distiller) confirm() error {
	a, b := d.aliceKeys.batches, d.bobKeys.batches
	d.aliceKeys.batches, d.bobKeys.batches = a[:0], b[:0]
	if len(a) != len(b) {
		return fmt.Errorf("engines distilled %d and %d batches in one frame", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			d.discarded++
			continue
		}
		d.tr.begin("kms.ingest")
		d.aliceKeys.Pool.Deposit(a[i])
		d.bobKeys.Pool.Deposit(b[i])
		d.tr.end()
	}
	return nil
}

// setStage closes the open stage span and opens name ("" opens none).
func (d *distiller) setStage(name string) {
	if d.stage == name {
		return
	}
	if d.stage != "" {
		d.tr.end()
	}
	d.stage = name
	if name != "" {
		d.tr.begin(name)
	}
}

// onMessage moves Bob's stage on each public-channel message: EC traffic
// is Cascade; his EC summary hands the batch to Alice's entropy
// estimate; her amplification parameters start his privacy step.
func (d *distiller) onMessage(t uint8, sent bool) {
	switch {
	case t == core.TEC:
		d.ecMsgs++
		d.setStage("cascade.batch")
	case t == core.TECSummary && sent:
		d.setStage("entropy.batch")
	case t == core.TPAParams && !sent:
		d.setStage("privacy.batch")
	}
}

// close stops Alice's goroutine and waits for it.
func (d *distiller) close() {
	close(d.txCh)
	<-d.aliceExit
}

// stageConn is Bob's public-channel end with stage tracking.
type stageConn struct {
	channel.Conn
	d *distiller
}

func (c *stageConn) Send(t uint8, p []byte) error {
	c.d.onMessage(t, true)
	return c.Conn.Send(t, p)
}

func (c *stageConn) Recv() (channel.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.d.onMessage(m.Type, false)
	}
	return m, err
}

func (c *stageConn) RecvTimeout(to time.Duration) (channel.Message, error) {
	m, err := c.Conn.RecvTimeout(to)
	if err == nil {
		c.d.onMessage(m.Type, false)
	}
	return m, err
}

// heldKeys is an engine's key sink: it holds distilled batches for
// confirm instead of passing them to the site's pool.
type heldKeys struct {
	keypool.Pool
	batches   []*bitarray.BitArray
	onDeposit func() // nil, or run as each batch arrives
}

func (h *heldKeys) Deposit(bits *bitarray.BitArray) {
	if h.onDeposit != nil {
		h.onDeposit()
	}
	h.batches = append(h.batches, bits)
}

// ikeEvent is one phase-2 milestone on site A's daemon: an exchange
// starting (its key already allocated) or a tunnel's SA pair installed,
// with site A's ledger cursor at that moment.
type ikeEvent struct {
	at      int64
	install bool
	cursor  uint64
}

// ikeRecorder receives site A's racoon-style log and timestamps the
// phase-2 milestones in it. Every A-side key allocation happens inside
// a phase-2 exchange, and exchanges are serialized, so the cursor read
// at an install is the end of that exchange's ledger ticket.
type ikeRecorder struct {
	epoch time.Time
	kds   *kms.Service

	mu     sync.Mutex
	events []ikeEvent
}

var (
	logBegin   = []byte("isakmp_ph2begin_i")
	logInstall = []byte("pk_recvupdate")
)

func (r *ikeRecorder) Write(p []byte) (int, error) {
	install := bytes.Contains(p, logInstall)
	if !install && !bytes.Contains(p, logBegin) {
		return len(p), nil
	}
	ev := ikeEvent{at: int64(time.Since(r.epoch)), install: install}
	if install {
		ev.cursor = r.kds.Cursor()
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
	return len(p), nil
}

func (r *ikeRecorder) snapshot() []ikeEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ikeEvent(nil), r.events...)
}

// stack is one assembled two-site system under test.
type stack struct {
	net   *vpn.Network
	dist  *distiller // nil when the workload runs without distillation
	rec   *ikeRecorder
	hosts [][2]ipsec.Addr
}

// buildStack assembles the network for a plan, charges its key delivery
// services and establishes every tunnel: the work setup_s times.
func buildStack(p *plan, seed uint64, epoch time.Time) (*stack, error) {
	rec := &ikeRecorder{epoch: epoch}
	net, err := vpn.New(vpn.Config{
		Tunnels: p.specs,
		Seed:    seed,
		NoQKD:   true, // the benchmark drives its own instrumented engines
		KDS:     true,
		IKELogA: rec,
		// The daemon runs one phase-2 exchange at a time, so a second
		// rekey worker only races the first for the next batch; with
		// one, a rekey storm coalesces into the same batches every run.
		RekeyWorkers: 1,
		// With the default 256-tunnel cap a storm drained in batches whose
		// sizes, and so the time until each SA of a batch is installed,
		// varied from run to run (17-29 % spread in rekey-storm's median
		// over ten seeds); at 32 it drains in full, equal batches (8 %).
		RekeyBatch: 32,
	})
	if err != nil {
		return nil, err
	}
	rec.kds = net.A.KDS
	st := &stack{net: net, rec: rec, hosts: p.hosts}
	if p.distill != distillNone {
		st.dist = newDistiller(net, seed, epoch)
	}
	if p.precharge > 0 {
		at := int64(time.Since(epoch))
		net.ChargeSynthetic(p.precharge)
		if st.dist != nil {
			st.dist.deposits = append(st.dist.deposits, deposit{start: at, end: int64(time.Since(epoch)), cum: net.A.KDS.Stats().DepositedBits})
		}
	}
	for net.A.KDS.Available() < p.establishBits {
		if err := st.dist.frame(); err != nil {
			st.close()
			return nil, fmt.Errorf("pre-charge: %w", err)
		}
	}
	if err := net.Establish(); err != nil {
		st.close()
		return nil, fmt.Errorf("establish: %w", err)
	}
	return st, nil
}

// close tears the stack down. The key services close first so a
// background rekey still waiting for key fails at once instead of
// holding teardown for its phase-2 timeout.
func (st *stack) close() {
	if st.dist != nil {
		st.dist.close()
	}
	st.net.A.KDS.Close()
	st.net.B.KDS.Close()
	st.net.Close()
}
