package qnet

import (
	"errors"
	"fmt"

	"qkd/internal/bitarray"
	"qkd/internal/keypool"
	"qkd/internal/kms"
)

// TransportOpts tunes a striped transport.
type TransportOpts struct {
	// ChunkBits is the delivery granularity (default: the whole key in
	// one chunk). The key length must be a multiple of it.
	ChunkBits int
	// FeedA / FeedB, when set, receive every delivered chunk — the two
	// mirrored endpoints' KDS custody feeds. During a failover the
	// feeds are taken down, so chunks reconstructed while a stripe
	// catches up buffer in custody and flush atomically once the
	// transport is whole again: consumers observe a delay, never the
	// switch.
	FeedA, FeedB *kms.Feed
	// StallBudget is how many consecutive rounds a stripe may sit
	// parked — cut, with no disjoint replacement path available —
	// before the transport aborts (default 8; negative aborts on the
	// first failed failover). Under repeated cuts the would-be spare is
	// often itself the cut span, and a span repair mid-transport is the
	// DTN regime the custody feeds exist for: parking waits the outage
	// out with every reservation held and the cursor frozen, instead of
	// burning the whole transport.
	StallBudget int
}

// stripe is one share's path state.
type stripe struct {
	route  Route
	resvs  []*keypool.Reservation // per hop, covering the undelivered remainder
	cursor int                    // chunks sent down this stripe
}

// interval is a half-open chunk-index range [from, to).
type interval struct{ from, to int }

// Transport is an in-flight striped key delivery. The end-to-end key is
// generated at src and split into k XOR shares — shares 1..k-1 uniform
// random, share k their XOR with the key — so every share alone, and
// every union of k-1 shares, is statistically independent of the key.
// Share i travels hop-by-hop (one-time-pad per hop) down vertex-disjoint
// path i. Before the first chunk moves, pads for the *whole* transport
// are reserved on every hop of every stripe; a transport that cannot
// start leaves every pool exactly as it found it.
type Transport struct {
	net               *Network
	src, dst          string
	k, nbits          int
	chunkBits, chunks int

	key     *bitarray.BitArray
	shares  []*bitarray.BitArray
	stripes []*stripe

	delivered int // chunks reconstructed at dst and deposited
	reroutes  int
	custody   bool
	feedA     *kms.Feed
	feedB     *kms.Feed

	// Stall bookkeeping for failovers that found no replacement path:
	// consecutive stalled rounds, bounded by the budget.
	stallBudget int
	stalls      int

	// exposure records, per site, which chunk ranges of which share it
	// held in the clear while relaying.
	exposure map[string]map[int][]interval

	failed error
}

// NewTransport begins a k-stripe transport of an nbits end-to-end key
// from src to dst. It computes k vertex-disjoint paths over healthy,
// sufficiently stocked edges and pre-reserves nbits of pairwise pad on
// every hop of every stripe; on any failure everything reserved so far
// is refunded and the error returned — no pool is drained by a
// transport that never delivers.
func (n *Network) NewTransport(src, dst string, nbits, k int, opts TransportOpts) (*Transport, error) {
	n.mu.Lock()
	known := n.nodes[src] && n.nodes[dst]
	n.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %s or %s", ErrUnknownNode, src, dst)
	}
	if nbits <= 0 {
		return nil, fmt.Errorf("qnet: non-positive key size %d", nbits)
	}
	if opts.ChunkBits <= 0 {
		opts.ChunkBits = nbits
	}
	if nbits%opts.ChunkBits != 0 {
		return nil, fmt.Errorf("qnet: key size %d is not a multiple of chunk size %d", nbits, opts.ChunkBits)
	}
	if opts.StallBudget == 0 {
		opts.StallBudget = 8
	} else if opts.StallBudget < 0 {
		opts.StallBudget = 0
	}
	t := &Transport{
		net: n, src: src, dst: dst, k: k, nbits: nbits,
		chunkBits: opts.ChunkBits, chunks: nbits / opts.ChunkBits,
		feedA: opts.FeedA, feedB: opts.FeedB,
		stallBudget: opts.StallBudget,
		exposure:    make(map[string]map[int][]interval),
	}
	t.key = n.randBits(nbits)
	if src == dst {
		// Self-transport: the key never leaves src; deliver it whole.
		t.delivered = t.chunks
		t.depositChunk(t.key.Clone())
		n.mu.Lock()
		n.stats.Transports++
		n.mu.Unlock()
		return t, nil
	}
	routes, err := n.DisjointPaths(src, dst, k, nbits)
	if err != nil {
		n.mu.Lock()
		n.stats.TransportsFailed++
		n.mu.Unlock()
		return nil, err
	}
	// XOR share split: k-1 uniform shares plus the correcting share.
	t.shares = make([]*bitarray.BitArray, k)
	last := t.key.Clone()
	for i := 0; i < k-1; i++ {
		t.shares[i] = n.randBits(nbits)
		last.Xor(t.shares[i])
	}
	t.shares[k-1] = last

	for _, r := range routes {
		resvs, err := reserveRoute(r, nbits)
		if err != nil {
			for _, s := range t.stripes {
				releaseAll(s.resvs)
			}
			n.mu.Lock()
			n.stats.TransportsFailed++
			n.mu.Unlock()
			return nil, err
		}
		t.stripes = append(t.stripes, &stripe{route: r, resvs: resvs})
	}
	return t, nil
}

// reserveRoute sets nbits aside on every hop, all-or-nothing.
func reserveRoute(r Route, nbits int) ([]*keypool.Reservation, error) {
	resvs := make([]*keypool.Reservation, 0, len(r.hops))
	for _, e := range r.hops {
		rv, err := e.Pool().Reserve(nbits)
		if err != nil {
			releaseAll(resvs)
			return nil, fmt.Errorf("qnet: reserving %d bits on %s: %w", nbits, e.Name(), err)
		}
		resvs = append(resvs, rv)
	}
	return resvs, nil
}

func releaseAll(resvs []*keypool.Reservation) {
	for _, rv := range resvs {
		rv.Release()
	}
}

// Routes returns the current node sequence of every stripe.
func (t *Transport) Routes() [][]string {
	out := make([][]string, len(t.stripes))
	for i, s := range t.stripes {
		out[i] = append([]string(nil), s.route.Nodes...)
	}
	return out
}

// DeliveredBits returns the end-to-end key bits reconstructed at dst.
func (t *Transport) DeliveredBits() int { return t.delivered * t.chunkBits }

// Done reports whether the whole key has been delivered.
func (t *Transport) Done() bool { return t.delivered == t.chunks }

// Step advances the transport one round: every dead stripe fails over
// to a fresh disjoint path, every live stripe moves one chunk of its
// share, and every chunk whose k shares have all arrived is
// reconstructed at dst and deposited into the custody feeds. It returns
// the number of chunks delivered this round. A stripe that dies with no
// replacement path available parks — reservations held, cursor frozen —
// and retries next round, so a span repaired mid-outage lets the
// transport complete; only a stall outlasting the budget aborts and
// refunds every undrawn pad.
func (t *Transport) Step() (int, error) {
	if t.failed != nil {
		return 0, t.failed
	}
	if t.Done() {
		return 0, nil
	}
	stalled := false
	// Failover pass: the health monitor's view decides before any pad
	// is drawn this round.
	for i, s := range t.stripes {
		if s.cursor >= t.chunks {
			continue
		}
		if !stripeHealthy(s) {
			if err := t.failover(i); err != nil {
				if aerr := t.parkStripe(err); aerr != nil {
					return 0, aerr
				}
				stalled = true
			}
		}
	}
	// Advance pass. Stripes still unhealthy after the failover pass are
	// parked this round and skipped.
	for i, s := range t.stripes {
		if s.cursor >= t.chunks || !stripeHealthy(s) {
			continue
		}
		if err := t.sendChunk(i, s); err != nil {
			// The pad vanished between the health check and the draw
			// (teardown race): fail the stripe over and resend.
			if ferr := t.failover(i); ferr != nil {
				if aerr := t.parkStripe(ferr); aerr != nil {
					return 0, aerr
				}
				stalled = true
				continue
			}
			if err := t.sendChunk(i, t.stripes[i]); err != nil {
				return 0, t.abort(err)
			}
		}
	}
	if !stalled {
		t.stalls = 0
	}
	// Reconstruction pass: a chunk is whole once every stripe's cursor
	// has passed it.
	minCur, maxCur := t.chunks, 0
	for _, s := range t.stripes {
		if s.cursor < minCur {
			minCur = s.cursor
		}
		if s.cursor > maxCur {
			maxCur = s.cursor
		}
	}
	before := t.delivered
	for t.delivered < minCur {
		c := t.delivered
		from, to := c*t.chunkBits, (c+1)*t.chunkBits
		rec := t.shares[0].Slice(from, to)
		for i := 1; i < t.k; i++ {
			rec.Xor(t.shares[i].Slice(from, to))
		}
		if !rec.Equal(t.key.Slice(from, to)) {
			return t.delivered - before, t.abort(fmt.Errorf("qnet: chunk %d reconstruction mismatch", c))
		}
		t.depositChunk(rec)
		t.delivered++
	}
	if t.custody && minCur == maxCur {
		// The re-routed stripe caught up: the transport is whole again,
		// custody flushes everything buffered during the switch.
		t.setFeeds(true)
		t.custody = false
	}
	if t.Done() {
		t.net.mu.Lock()
		t.net.stats.Transports++
		t.net.mu.Unlock()
	}
	return t.delivered - before, nil
}

// Run steps the transport to completion within maxSteps. It does not
// tick the network — pads for the whole transport were reserved
// upfront, so no replenishment is needed unless a failover must
// re-reserve on a depleted spare path; the caller owns time and may
// interleave Tick with Step for that. A transport abandoned after
// ErrIncomplete should be Abort()ed so its reservations refund.
func (t *Transport) Run(maxSteps int) error {
	for i := 0; i < maxSteps && !t.Done(); i++ {
		if _, err := t.Step(); err != nil {
			return err
		}
	}
	if !t.Done() {
		return ErrIncomplete
	}
	return nil
}

// Abort cancels an unfinished transport: every stripe's undrawn pad
// reservation is refunded to its pool and the custody feeds come back
// up so already-delivered chunks flush to consumers. Aborting a
// completed or already-failed transport is a no-op.
func (t *Transport) Abort() {
	if t.failed != nil || t.Done() {
		return
	}
	t.abort(errors.New("aborted by caller"))
}

// stripeHealthy reports whether every hop is up and undemoted.
func stripeHealthy(s *stripe) bool {
	for _, e := range s.route.hops {
		if !e.Up() || e.Demoted() {
			return false
		}
	}
	return true
}

// sendChunk moves stripe i's next share chunk hop-by-hop: encrypted
// with the hop pad on the wire, decrypted at the far node — in the
// clear inside every interior site, which is recorded as exposure.
func (t *Transport) sendChunk(i int, s *stripe) error {
	c := s.cursor
	from, to := c*t.chunkBits, (c+1)*t.chunkBits
	share := t.shares[i].Slice(from, to)
	current := share.Clone()
	for h, e := range s.route.hops {
		pad, err := s.resvs[h].Consume(t.chunkBits)
		if err != nil {
			return fmt.Errorf("qnet: pad on %s vanished: %w", e.Name(), err)
		}
		onWire := current.Clone()
		onWire.Xor(pad) // encrypt entering the hop
		current = onWire
		current.Xor(pad) // decrypt at the far node
		if h+1 < len(s.route.hops) {
			t.expose(s.route.Nodes[h+1], i, c)
		}
	}
	if !current.Equal(share) {
		return fmt.Errorf("qnet: stripe %d corrupted in transit", i)
	}
	s.cursor++
	return nil
}

// expose records that node held chunk c of share i in the clear.
func (t *Transport) expose(node string, i, c int) {
	per := t.exposure[node]
	if per == nil {
		per = make(map[int][]interval)
		t.exposure[node] = per
	}
	ivs := per[i]
	if n := len(ivs); n > 0 && ivs[n-1].to == c {
		ivs[n-1].to = c + 1
	} else {
		ivs = append(ivs, interval{c, c + 1})
	}
	per[i] = ivs
}

// parkStripe accounts one round of a stripe that could not fail over —
// no disjoint spare, or the spare is pad-starved. Within the budget it
// returns nil and the transport stalls in place; past it, the transport
// aborts with the underlying cause.
func (t *Transport) parkStripe(cause error) error {
	t.stalls++
	if t.stalls > t.stallBudget {
		return t.abort(fmt.Errorf("stripe stalled %d rounds: %v", t.stalls, cause))
	}
	return nil
}

// failover replaces a dead stripe: a fresh path vertex-disjoint from
// every *other* live stripe is computed over the surviving healthy
// edges, the remainder of the share is re-reserved on it, the dead
// stripe's undrawn pads are refunded, and the stripe resumes at the
// chunk where it died. On failure the dead stripe keeps its
// reservations — a parked stripe that outlives the outage resumes on
// its original spans. The custody feeds go down for the duration of a
// successful switch — chunks the transport completes while the stripe
// catches up buffer at the feed and flush intact when the transport is
// whole.
func (t *Transport) failover(i int) error {
	s := t.stripes[i]
	banned := make(map[string]bool)
	for j, o := range t.stripes {
		if j == i {
			continue
		}
		for _, v := range o.route.Nodes[1 : len(o.route.Nodes)-1] {
			banned[v] = true
		}
	}
	// A site that ever held a *different* share — even on a route long
	// since failed over — must never carry this one: two shares of the
	// same chunk at one site is exactly what reconstruction needs, and
	// the other stripes' current interiors do not cover history.
	for node, per := range t.exposure {
		for j := range per {
			if j != i {
				banned[node] = true
			}
		}
	}
	remBits := (t.chunks - s.cursor) * t.chunkBits
	routes, err := kDisjointPaths(t.net.usableEdges(remBits, banned),
		func(e *Edge) float64 { return e.weight(remBits) }, t.src, t.dst, 1)
	if err != nil {
		return err
	}
	resvs, err := reserveRoute(routes[0], remBits)
	if err != nil {
		return err
	}
	// Only now that the replacement is fully reserved does the dead
	// stripe let go of its spans.
	releaseAll(s.resvs)
	t.net.noteFailover()
	t.reroutes++
	if !t.custody {
		t.setFeeds(false)
		t.custody = true
	}
	t.stripes[i] = &stripe{route: routes[0], resvs: resvs, cursor: s.cursor}
	return nil
}

// abort fails the transport: every stripe's undrawn pads are refunded
// and anything already delivered stays delivered (the feeds flush so
// consumers keep the custody bits).
func (t *Transport) abort(err error) error {
	for _, s := range t.stripes {
		releaseAll(s.resvs)
	}
	if t.custody {
		t.setFeeds(true)
		t.custody = false
	}
	t.failed = fmt.Errorf("%w: %v", ErrFailed, err)
	t.net.mu.Lock()
	t.net.stats.TransportsFailed++
	t.net.mu.Unlock()
	return t.failed
}

func (t *Transport) setFeeds(up bool) {
	if t.feedA != nil {
		t.feedA.SetUp(up)
	}
	if t.feedB != nil {
		t.feedB.SetUp(up)
	}
}

func (t *Transport) depositChunk(chunk *bitarray.BitArray) {
	t.net.mu.Lock()
	t.net.stats.BitsDelivered += uint64(chunk.Len())
	t.net.mu.Unlock()
	if t.feedA != nil {
		t.feedA.Deposit(chunk.Clone())
	}
	if t.feedB != nil {
		t.feedB.Deposit(chunk)
	}
}

// Delivery is the outcome of a completed striped transport.
type Delivery struct {
	// Key is the delivered end-to-end key, bit-exact at both endpoints.
	Key *bitarray.BitArray
	// Stripes is the share count k.
	Stripes int
	// Routes is each stripe's final path.
	Routes [][]string
	// Reroutes counts mid-transport failovers.
	Reroutes int
	// ShareBitsSeen is, per intermediate site, the share bits it held
	// in the clear. Each share alone is uniform noise: these bits carry
	// zero information about Key unless the same site saw all k shares
	// of the same range.
	ShareBitsSeen map[string]int
	// KeyBitsExposed is, per intermediate site, the end-to-end key bits
	// it could reconstruct — nonzero only where it held every one of
	// the k shares over the same chunk range. With k >= 2 disjoint
	// stripes this is 0 for every site; with k = 1 the interior relays
	// hold the whole key, the trusted-relay trust cost.
	KeyBitsExposed map[string]int
}

// Finish completes the transport and returns its Delivery and
// trust-exposure accounting.
func (t *Transport) Finish() (*Delivery, error) {
	if t.failed != nil {
		return nil, t.failed
	}
	if !t.Done() {
		return nil, ErrIncomplete
	}
	d := &Delivery{
		Key:            t.key,
		Stripes:        t.k,
		Routes:         t.Routes(),
		Reroutes:       t.reroutes,
		ShareBitsSeen:  make(map[string]int),
		KeyBitsExposed: make(map[string]int),
	}
	for node, per := range t.exposure {
		total := 0
		for _, ivs := range per {
			for _, iv := range ivs {
				total += (iv.to - iv.from) * t.chunkBits
			}
		}
		d.ShareBitsSeen[node] = total
		d.KeyBitsExposed[node] = t.reconstructible(per) * t.chunkBits
	}
	return d, nil
}

// reconstructible returns the chunks of the key a site holding these
// share intervals could reconstruct: the intersection over all k
// shares of the ranges it saw.
func (t *Transport) reconstructible(per map[int][]interval) int {
	if len(per) < t.k {
		return 0
	}
	acc := append([]interval(nil), per[0]...)
	for i := 1; i < t.k && len(acc) > 0; i++ {
		acc = intersect(acc, per[i])
	}
	total := 0
	for _, iv := range acc {
		total += iv.to - iv.from
	}
	return total
}

// intersect computes the intersection of two sorted interval lists.
func intersect(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].from, b[j].from), min(a[i].to, b[j].to)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].to < b[j].to {
			i++
		} else {
			j++
		}
	}
	return out
}
