package ipsec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// SAD is the Security Association Database, structured hierarchically
// for a fabric-scale gateway: inbound SAs live in per-peer buckets
// (the outer tunnel address traffic actually arrives from), each
// bucket a lock-free sync.Map of SPI -> SA. A packet's lookup touches
// only its own peer's bucket, so 100k tunnels spread across peers
// never contend on gateway-global stripes; installs serialize only
// within a peer. Manually-keyed SAs (tests, static keying) without a
// peer land in the wildcard bucket, which lookups fall back to.
//
// Outbound SAs are indexed by the policy they serve, and per-tunnel
// inbound rollover generations keep the database bounded: a
// superseded SA drains for a grace window and is then removed instead
// of decrypting forever. Superseded generations wait in a retirement
// queue in supersession order; every one of them is due DefaultGrace
// after its supersession, so the queue is also in due order and a
// sweep touches only the generations it retires, never every tunnel.
type SAD struct {
	peerMu sync.RWMutex
	peers  map[Addr]*peerSAD

	outbound sync.Map // policy name -> *SA
	outCount atomic.Int64

	genMu    sync.Mutex
	gens     map[string]*saGenerations
	retiring []retirement // superseded generations, earliest due first
}

// peerSAD is one peer gateway's inbound SPI index.
type peerSAD struct {
	bySPI sync.Map // uint32 -> *SA
	count atomic.Int64
}

// saGenerations chains a tunnel direction's inbound SAs: cur decrypts
// new traffic, prev drains in-flight packets until its grace deadline.
// Each generation remembers the peer bucket it was filed under, so a
// tunnel that moves to another peer gateway still removes its old
// generations from the old bucket.
type saGenerations struct {
	cur, prev         *SA
	curPeer, prevPeer Addr
}

// retirement is one retirement-queue entry: a superseded generation of
// a tunnel direction. A newer rollover that removes the generation
// before its grace closes leaves the entry stale (g.prev != sa), and
// the sweep drops it without touching the SAD again.
type retirement struct {
	g  *saGenerations
	sa *SA
}

// NewSAD returns an empty database.
func NewSAD() *SAD {
	return &SAD{
		peers: make(map[Addr]*peerSAD),
		gens:  make(map[string]*saGenerations),
	}
}

// peer returns the bucket for a peer address, creating it on demand.
func (d *SAD) peer(addr Addr) *peerSAD {
	d.peerMu.RLock()
	b := d.peers[addr]
	d.peerMu.RUnlock()
	if b != nil {
		return b
	}
	d.peerMu.Lock()
	if b = d.peers[addr]; b == nil {
		b = &peerSAD{}
		d.peers[addr] = b
	}
	d.peerMu.Unlock()
	return b
}

// peerIfAny returns the bucket for a peer address, or nil.
func (d *SAD) peerIfAny(addr Addr) *peerSAD {
	d.peerMu.RLock()
	b := d.peers[addr]
	d.peerMu.RUnlock()
	return b
}

func (b *peerSAD) install(sa *SA) {
	if _, loaded := b.bySPI.Swap(sa.SPI, sa); !loaded {
		b.count.Add(1)
	}
}

func (b *peerSAD) remove(spi uint32) {
	if _, loaded := b.bySPI.LoadAndDelete(spi); loaded {
		b.count.Add(-1)
	}
}

// removeSA deletes sa only while its SPI still maps to it, so retiring
// a generation can never remove a newer SA that reused the SPI.
func (b *peerSAD) removeSA(sa *SA) {
	if b.bySPI.CompareAndDelete(sa.SPI, sa) {
		b.count.Add(-1)
	}
}

func (b *peerSAD) get(spi uint32) *SA {
	if v, ok := b.bySPI.Load(spi); ok {
		return v.(*SA)
	}
	return nil
}

// InstallInbound registers an SA for decryption by SPI in the wildcard
// bucket, outside any generation chain (tests, manual keying).
func (d *SAD) InstallInbound(sa *SA) {
	d.InstallInboundPeer(Addr{}, sa)
}

// InstallInboundPeer registers an SA for decryption of ESP traffic
// arriving from the given peer gateway (the zero Addr is the wildcard
// bucket), outside any generation chain.
func (d *SAD) InstallInboundPeer(peer Addr, sa *SA) {
	d.peer(peer).install(sa)
}

// InstallInboundFor registers an inbound SA as the newest rollover
// generation for a tunnel direction (keyed by the peer's outbound
// policy name), filed under the peer gateway's bucket. The superseded
// predecessor keeps decrypting in-flight traffic until the grace
// window closes; any generation older than that is removed
// immediately, so the inbound index stays bounded by two generations
// per tunnel no matter how often IKE renegotiates. The install then
// sweeps the retirement queue, which costs amortized O(1): each
// superseded generation is queued once and popped once.
func (d *SAD) InstallInboundFor(policyName string, peer Addr, sa *SA) {
	d.InstallInboundPeer(peer, sa)
	d.genMu.Lock()
	defer d.genMu.Unlock()
	g := d.gens[policyName]
	if g == nil {
		g = &saGenerations{}
		d.gens[policyName] = g
	}
	if g.prev != nil && g.prev != sa {
		d.removeInboundPeer(g.prevPeer, g.prev)
	}
	if g.cur != nil && g.cur != sa {
		g.cur.Supersede(g.cur.clockNow().Add(DefaultGrace))
		g.prev, g.prevPeer = g.cur, g.curPeer
		d.retiring = append(d.retiring, retirement{g: g, sa: g.cur})
	}
	g.cur, g.curPeer = sa, peer
	d.sweepLocked()
}

// Sweep removes superseded generations whose supersession grace window
// has closed. A generation that ran out its own time bound first
// already refuses to decrypt and is removed with the queue entry ahead
// of it, at most DefaultGrace later. Install paths call it; long-idle
// gateways may call it periodically.
func (d *SAD) Sweep() {
	d.genMu.Lock()
	defer d.genMu.Unlock()
	d.sweepLocked()
}

// sweepLocked pops the retirement queue's head while it is due or
// stale. Retirement follows the supersession deadline: every
// generation retires DefaultGrace after its supersession and the queue
// is in supersession order, so the first live entry still in grace
// ends the sweep: its cost is the entries it pops. An entry behind it
// whose SA is already Retired on its time bound waits for it. A popped
// slot is cleared, so the queue's spent prefix pins no SA.
func (d *SAD) sweepLocked() {
	q := d.retiring
	for len(q) > 0 {
		r := q[0]
		if r.g.prev == r.sa {
			if !r.sa.Retired() {
				break
			}
			d.removeInboundPeer(r.g.prevPeer, r.sa)
			r.g.prev = nil
		}
		q[0] = retirement{}
		q = q[1:]
	}
	d.retiring = q
}

// InstallOutbound registers an SA to protect a policy's traffic,
// replacing any previous SA (key rollover).
func (d *SAD) InstallOutbound(policyName string, sa *SA) {
	if _, loaded := d.outbound.Swap(policyName, sa); !loaded {
		d.outCount.Add(1)
	}
}

// Outbound returns the SA serving a policy, or nil.
func (d *SAD) Outbound(policyName string) *SA {
	if v, ok := d.outbound.Load(policyName); ok {
		return v.(*SA)
	}
	return nil
}

// BySPI returns the inbound SA for spi, or nil: the wildcard bucket
// first, then every peer bucket (a convenience for tests and tooling;
// the dataplane looks up by (peer, SPI)).
func (d *SAD) BySPI(spi uint32) *SA {
	if b := d.peerIfAny(Addr{}); b != nil {
		if sa := b.get(spi); sa != nil {
			return sa
		}
	}
	d.peerMu.RLock()
	defer d.peerMu.RUnlock()
	for addr, b := range d.peers {
		if addr == (Addr{}) {
			continue
		}
		if sa := b.get(spi); sa != nil {
			return sa
		}
	}
	return nil
}

// BySPIPeer returns the inbound SA for ESP traffic from a peer
// gateway, falling back to the wildcard bucket for manually-keyed SAs.
func (d *SAD) BySPIPeer(peer Addr, spi uint32) *SA {
	if b := d.peerIfAny(peer); b != nil {
		if sa := b.get(spi); sa != nil {
			return sa
		}
	}
	if peer != (Addr{}) {
		if b := d.peerIfAny(Addr{}); b != nil {
			return b.get(spi)
		}
	}
	return nil
}

// RemoveOutbound clears a policy's outbound SA if it is the given one.
func (d *SAD) RemoveOutbound(policyName string, sa *SA) {
	if d.outbound.CompareAndDelete(policyName, sa) {
		d.outCount.Add(-1)
	}
}

// RemoveInbound deletes an inbound SA by SPI from every bucket.
func (d *SAD) RemoveInbound(spi uint32) {
	d.peerMu.RLock()
	defer d.peerMu.RUnlock()
	for _, b := range d.peers {
		b.remove(spi)
	}
}

// removeInboundPeer deletes an inbound SA from the peer bucket it was
// filed under.
func (d *SAD) removeInboundPeer(peer Addr, sa *SA) {
	if b := d.peerIfAny(peer); b != nil {
		b.removeSA(sa)
	}
}

// Reset drops every SA — inbound buckets, outbound map, generation
// chains and the retirement queue — modelling a gateway whose kernel
// SAD died with its process. Concurrent dataplane traffic is safe:
// in-flight packets simply miss (ErrNoSA / ErrUnknownSPI) and drive
// resynchronization; concurrent SA installation must be quiesced by
// the caller (the vpn layer's restart path holds its control-plane
// lock across the reset).
func (d *SAD) Reset() {
	d.peerMu.Lock()
	d.peers = make(map[Addr]*peerSAD)
	d.peerMu.Unlock()
	d.outbound.Range(func(k, _ any) bool {
		d.outbound.Delete(k)
		return true
	})
	d.outCount.Store(0)
	d.genMu.Lock()
	d.gens = make(map[string]*saGenerations)
	d.retiring = nil
	d.genMu.Unlock()
}

// Count returns (inbound, outbound) SA counts.
func (d *SAD) Count() (in, out int) {
	d.peerMu.RLock()
	for _, b := range d.peers {
		in += int(b.count.Load())
	}
	d.peerMu.RUnlock()
	return in, int(d.outCount.Load())
}

// Stats counts gateway dataplane events.
type Stats struct {
	Sealed        uint64
	Opened        uint64
	Bypassed      uint64
	Discarded     uint64
	NoSA          uint64
	Expired       uint64
	ReplayDrops   uint64
	IntegFailures uint64
	// SoftRekeys counts rekey triggers fired by an SA crossing its
	// soft-expiry threshold while traffic still flowed.
	SoftRekeys uint64
}

// Gateway is the VPN dataplane of Fig. 10/11: an IP packet filter with
// pattern matching against the SPD and crypto against the SAD. All
// counters are atomic and inbound lookups are per-peer, so concurrent
// flows over different tunnels never serialize on gateway-wide state.
type Gateway struct {
	// Local is this gateway's tunnel address.
	Local Addr
	// SPD and SAD are exported for the IKE daemon, which populates the
	// SAD as negotiations complete.
	SPD *SPD
	SAD *SAD

	// OnMissingSA fires when a Protect policy has traffic but no
	// (unexpired) SA — the trigger for IKE negotiation — and, softly,
	// when a serving SA crosses its soft-expiry threshold so the
	// rollover lands before the hard stop.
	OnMissingSA func(*Policy)

	sealed, opened, bypassed, discarded    atomic.Uint64
	noSA, expired, replayDrops, integFails atomic.Uint64
	softRekeys                             atomic.Uint64
}

// NewGateway builds a gateway at the given tunnel address.
func NewGateway(local Addr, spd *SPD) *Gateway {
	return &Gateway{Local: local, SPD: spd, SAD: NewSAD()}
}

// Stats returns a snapshot of the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Sealed:        g.sealed.Load(),
		Opened:        g.opened.Load(),
		Bypassed:      g.bypassed.Load(),
		Discarded:     g.discarded.Load(),
		NoSA:          g.noSA.Load(),
		Expired:       g.expired.Load(),
		ReplayDrops:   g.replayDrops.Load(),
		IntegFailures: g.integFails.Load(),
		SoftRekeys:    g.softRekeys.Load(),
	}
}

// ProcessOutbound applies policy to a packet leaving the enclave:
// bypass, discard, or encapsulate under the policy's SA in tunnel mode
// (the entire inner packet becomes the ESP payload). It is
// ProcessOutboundBatch over a burst of one; a sealed packet is copied
// out of the batch and belongs to the caller.
func (g *Gateway) ProcessOutbound(p *Packet) (*Packet, error) {
	return processOne(p, g.ProcessOutboundBatch)
}

// ProcessInbound handles a packet arriving from the black network:
// ESP packets are decapsulated via the SAD; clear packets are checked
// against policy (a clear packet whose flow demands protection is
// dropped — accepting it would let Eve inject plaintext into the
// enclave). It is ProcessInboundBatch over a burst of one; a
// decapsulated packet is copied out of the batch and belongs to the
// caller.
func (g *Gateway) ProcessInbound(p *Packet) (*Packet, error) {
	return processOne(p, g.ProcessInboundBatch)
}

// BatchResult is one packet's outcome from a batched gateway pass:
// the processed packet, or the error that dropped it.
type BatchResult struct {
	Pkt *Packet
	Err error
}

// Batch is a reusable burst context for the batched dataplane. It
// owns the output arena that processed packets' payloads point into,
// so one growing allocation serves a whole burst and is recycled
// across calls. Results are valid until the Batch's next use or its
// Release — consume (or copy out) a burst before reusing the Batch.
// The zero Batch is ready to use.
type Batch struct {
	arena   []byte
	scratch []byte
	pkts    []Packet
	res     []BatchResult
	pols    []*Policy
	// single is the burst of one behind ProcessOutbound/ProcessInbound;
	// it carries a copy of the caller's packet, so that packet does not
	// escape to the heap through the pooled batch.
	single [1]*Packet
	copyIn Packet
}

var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// NewBatch returns a pooled burst context.
func NewBatch() *Batch { return batchPool.Get().(*Batch) }

// Release returns the Batch (and its arena) to the pool. The caller
// must be done with every BatchResult it produced.
func (b *Batch) Release() { batchPool.Put(b) }

// processOne runs process over the burst of one p in a pooled Batch
// and copies the result out of it, so it outlives the batch's reuse. A
// bypassed packet is p itself and comes back as is.
func processOne(p *Packet, process func(*Batch, []*Packet) []BatchResult) (*Packet, error) {
	b := NewBatch()
	defer b.Release()
	b.copyIn = *p
	b.single[0] = &b.copyIn
	r := process(b, b.single[:])[0]
	b.copyIn = Packet{} // the pool must not pin the caller's payload
	switch {
	case r.Err != nil:
		return nil, r.Err
	case r.Pkt == &b.copyIn:
		return p, nil
	}
	out := *r.Pkt
	out.Payload = append([]byte(nil), r.Pkt.Payload...)
	return &out, nil
}

// reset prepares the batch for n packets, keeping allocated capacity.
func (b *Batch) reset(n int) {
	b.arena = b.arena[:0]
	b.scratch = b.scratch[:0]
	if cap(b.pkts) < n {
		b.pkts = make([]Packet, n)
		b.res = make([]BatchResult, n)
		b.pols = make([]*Policy, n)
	}
	b.pkts = b.pkts[:n]
	b.res = b.res[:n]
	b.pols = b.pols[:n]
	for i := range b.res {
		b.res[i] = BatchResult{}
	}
}

// outCounters accumulates a burst's stat deltas so the batch flushes
// each atomic counter once instead of once per packet.
type outCounters struct {
	sealed, opened, bypassed, discarded    uint64
	noSA, expired, replayDrops, integFails uint64
	softRekeys                             uint64
}

func (g *Gateway) flush(c *outCounters) {
	if c.sealed > 0 {
		g.sealed.Add(c.sealed)
	}
	if c.opened > 0 {
		g.opened.Add(c.opened)
	}
	if c.bypassed > 0 {
		g.bypassed.Add(c.bypassed)
	}
	if c.discarded > 0 {
		g.discarded.Add(c.discarded)
	}
	if c.noSA > 0 {
		g.noSA.Add(c.noSA)
	}
	if c.expired > 0 {
		g.expired.Add(c.expired)
	}
	if c.replayDrops > 0 {
		g.replayDrops.Add(c.replayDrops)
	}
	if c.integFails > 0 {
		g.integFails.Add(c.integFails)
	}
	if c.softRekeys > 0 {
		g.softRekeys.Add(c.softRekeys)
	}
}

// ProcessOutboundBatch is ProcessOutbound over a burst: packets are
// grouped into runs sharing an SPD policy, and each run pays for its
// outbound-SA lookup, SA mutex acquisition, and stat updates once.
// Sealed output lands in the Batch's arena (no per-packet make);
// results are positionally matched to pkts and valid until the Batch
// is reused or released.
func (g *Gateway) ProcessOutboundBatch(b *Batch, pkts []*Packet) []BatchResult {
	b.reset(len(pkts))
	var c outCounters
	for i, p := range pkts {
		b.pols[i] = g.SPD.Match(p)
	}
	for i := 0; i < len(pkts); {
		pol := b.pols[i]
		j := i + 1
		for j < len(pkts) && b.pols[j] == pol {
			j++
		}
		switch {
		case pol == nil:
			for k := i; k < j; k++ {
				p := pkts[k]
				b.res[k] = BatchResult{Err: fmt.Errorf("%w: %s -> %s proto %d",
					ErrNoPolicy, p.Src, p.Dst, p.Proto)}
			}
		case pol.Action == Bypass:
			for k := i; k < j; k++ {
				b.res[k] = BatchResult{Pkt: pkts[k]}
			}
			c.bypassed += uint64(j - i)
		case pol.Action == Discard:
			for k := i; k < j; k++ {
				b.res[k] = BatchResult{Err: ErrDiscard}
			}
			c.discarded += uint64(j - i)
		default:
			g.sealRun(b, pkts, i, j, pol, &c)
		}
		i = j
	}
	g.flush(&c)
	return b.res
}

// sealRun seals pkts[lo:hi] (one Protect policy) under a single SA
// lock acquisition.
func (g *Gateway) sealRun(b *Batch, pkts []*Packet, lo, hi int, pol *Policy, c *outCounters) {
	sa := g.SAD.Outbound(pol.Name)
	if sa != nil && sa.Expired() {
		g.SAD.RemoveOutbound(pol.Name, sa)
		c.expired++
		sa = nil
	}
	if sa == nil {
		c.noSA += uint64(hi - lo)
		if g.OnMissingSA != nil {
			g.OnMissingSA(pol)
		}
		err := fmt.Errorf("%w: policy %q", ErrNoSA, pol.Name)
		for k := lo; k < hi; k++ {
			b.res[k] = BatchResult{Err: err}
		}
		return
	}
	sealFailed := false
	sa.mu.Lock()
	for k := lo; k < hi; k++ {
		p := pkts[k]
		scratch, err := p.AppendMarshal(b.scratch[:0])
		if err != nil {
			b.res[k] = BatchResult{Err: err}
			continue
		}
		b.scratch = scratch
		start := len(b.arena)
		arena, err := sa.sealAppendLocked(b.arena, b.scratch)
		b.arena = arena
		if err != nil {
			b.res[k] = BatchResult{Err: err}
			if errors.Is(err, ErrExpired) || errors.Is(err, ErrPadExhaust) {
				c.expired++
				sealFailed = true
			}
			continue
		}
		blob := b.arena[start:len(b.arena):len(b.arena)]
		b.pkts[k] = Packet{Src: g.Local, Dst: pol.PeerGW, Proto: ProtoESP, ID: p.ID, Payload: blob}
		b.res[k] = BatchResult{Pkt: &b.pkts[k]}
		c.sealed++
	}
	sa.mu.Unlock()
	if sealFailed {
		g.SAD.RemoveOutbound(pol.Name, sa)
		if g.OnMissingSA != nil {
			g.OnMissingSA(pol)
		}
		return
	}
	if sa.SoftExpiring() {
		c.softRekeys++
		if g.OnMissingSA != nil {
			g.OnMissingSA(pol)
		}
	}
}

// ProcessInboundBatch is ProcessInbound over a burst: consecutive ESP
// packets from the same peer and SPI share one SA lookup and mutex
// acquisition, and decapsulated payloads alias the Batch's arena
// instead of being copied per packet.
func (g *Gateway) ProcessInboundBatch(b *Batch, pkts []*Packet) []BatchResult {
	b.reset(len(pkts))
	var c outCounters
	for i := 0; i < len(pkts); {
		p := pkts[i]
		if p.Proto != ProtoESP {
			// Clear traffic: only deliverable if policy says bypass.
			if pol := g.SPD.Match(p); pol != nil && pol.Action == Bypass {
				b.res[i] = BatchResult{Pkt: p}
				c.bypassed++
			} else {
				b.res[i] = BatchResult{Err: ErrDiscard}
				c.discarded++
			}
			i++
			continue
		}
		if len(p.Payload) < 4 {
			b.res[i] = BatchResult{Err: fmt.Errorf("ipsec: short ESP payload")}
			i++
			continue
		}
		spi := uint32(p.Payload[0])<<24 | uint32(p.Payload[1])<<16 |
			uint32(p.Payload[2])<<8 | uint32(p.Payload[3])
		j := i + 1
		for j < len(pkts) {
			q := pkts[j]
			if q.Proto != ProtoESP || q.Src != p.Src || len(q.Payload) < 4 {
				break
			}
			qspi := uint32(q.Payload[0])<<24 | uint32(q.Payload[1])<<16 |
				uint32(q.Payload[2])<<8 | uint32(q.Payload[3])
			if qspi != spi {
				break
			}
			j++
		}
		sa := g.SAD.BySPIPeer(p.Src, spi)
		if sa == nil {
			err := fmt.Errorf("%w: %#x", ErrUnknownSPI, spi)
			for k := i; k < j; k++ {
				b.res[k] = BatchResult{Err: err}
			}
			i = j
			continue
		}
		sa.mu.Lock()
		for k := i; k < j; k++ {
			start := len(b.arena)
			arena, err := sa.openAppendLocked(b.arena, pkts[k].Payload)
			b.arena = arena
			if err != nil {
				switch {
				case errors.Is(err, ErrReplay):
					c.replayDrops++
				case errors.Is(err, ErrIntegrity):
					c.integFails++
				case errors.Is(err, ErrExpired):
					c.expired++
				}
				b.res[k] = BatchResult{Err: err}
				continue
			}
			inner := b.arena[start:len(b.arena):len(b.arena)]
			if err := unmarshalPacketInto(&b.pkts[k], inner, false); err != nil {
				b.res[k] = BatchResult{Err: fmt.Errorf("ipsec: decapsulated garbage: %w", err)}
				continue
			}
			b.res[k] = BatchResult{Pkt: &b.pkts[k]}
			c.opened++
		}
		sa.mu.Unlock()
		i = j
	}
	g.flush(&c)
	return b.res
}
