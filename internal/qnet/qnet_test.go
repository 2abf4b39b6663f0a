package qnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qkd/internal/kms"
	"qkd/internal/optical"
	"qkd/internal/photonics"
	"qkd/internal/relay"
)

// stripeNet builds gwA -r{i}- gwB with `relays` parallel 2-hop paths
// and registers it, charged with `ticks` rounds of key.
func stripeNet(t testing.TB, relays, rate, ticks int) (*Network, *relay.Network) {
	if h, ok := t.(*testing.T); ok {
		h.Helper()
	}
	rn := relay.NewNetwork(7)
	rn.AddNode("gwA")
	rn.AddNode("gwB")
	for i := 0; i < relays; i++ {
		r := fmt.Sprintf("r%d", i)
		rn.AddNode(r)
		if _, err := rn.AddLink("gwA", r, rate); err != nil {
			t.Fatal(err)
		}
		if _, err := rn.AddLink(r, "gwB", rate); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNetwork(Config{Seed: 11})
	if got := n.RegisterRelay(rn); got != 2*relays {
		t.Fatalf("registered %d edges, want %d", got, 2*relays)
	}
	for i := 0; i < ticks; i++ {
		n.Tick()
	}
	return n, rn
}

// cutFirstHop cuts the first trusted hop of the given route in rn.
func cutFirstHop(t *testing.T, rn *relay.Network, route []string) (a, b string) {
	t.Helper()
	a, b = route[0], route[1]
	if err := rn.Cut(a, b); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestStripedTransportDelivers(t *testing.T) {
	n, _ := stripeNet(t, 3, 8192, 2)
	tr, err := n.NewTransport("gwA", "gwB", 1024, 3, TransportOpts{ChunkBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(16); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d.Key.Len() != 1024 || d.Stripes != 3 || len(d.Routes) != 3 {
		t.Fatalf("delivery %d bits, %d stripes, %d routes", d.Key.Len(), d.Stripes, len(d.Routes))
	}
	// Every interior relay saw exactly one full share stream — zero
	// information — and can reconstruct no key bits.
	for node, bits := range d.ShareBitsSeen {
		if bits != 1024 {
			t.Errorf("%s saw %d share bits, want 1024", node, bits)
		}
	}
	if len(d.ShareBitsSeen) != 3 {
		t.Errorf("exposure map %v, want the 3 stripe relays", d.ShareBitsSeen)
	}
	for node, bits := range d.KeyBitsExposed {
		if bits != 0 {
			t.Errorf("%s can reconstruct %d key bits, want 0", node, bits)
		}
	}
	if st := n.Stats(); st.Transports != 1 || st.BitsDelivered != 1024 {
		t.Errorf("stats %+v", st)
	}
}

func TestSinglePathExposesWholeKey(t *testing.T) {
	n, _ := stripeNet(t, 1, 8192, 1)
	tr, err := n.NewTransport("gwA", "gwB", 512, 1, TransportOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(4); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.KeyBitsExposed["r0"]; got != 512 {
		t.Errorf("k=1 relay reconstructs %d key bits, want the whole 512", got)
	}
}

func TestTransportConsumesPerHopPads(t *testing.T) {
	n, rn := stripeNet(t, 2, 8192, 1)
	before := map[string]int{}
	for _, l := range rn.Links() {
		before[l.A+"|"+l.B] = l.KeyAvailable()
	}
	tr, err := n.NewTransport("gwA", "gwB", 1024, 2, TransportOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(4); err != nil {
		t.Fatal(err)
	}
	// Every hop of both 2-hop stripes consumed exactly 1024 bits.
	for _, l := range rn.Links() {
		if got := before[l.A+"|"+l.B] - l.KeyAvailable(); got != 1024 {
			t.Errorf("link %s-%s consumed %d, want 1024", l.A, l.B, got)
		}
	}
}

func TestFailoverOnMidTransportCut(t *testing.T) {
	n, rn := stripeNet(t, 3, 1<<15, 2) // 2 active stripes + 1 spare
	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{ChunkBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	// Kill the first stripe's first hop mid-transport.
	victim := tr.Routes()[0]
	cutFirstHop(t, rn, victim)
	if err := tr.Run(16); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d.Reroutes != 1 {
		t.Errorf("reroutes = %d, want 1", d.Reroutes)
	}
	// The replacement is still vertex-disjoint from the surviving stripe.
	interior := map[string]bool{}
	for _, r := range d.Routes {
		for _, v := range r[1 : len(r)-1] {
			if interior[v] {
				t.Errorf("routes share relay %s after failover", v)
			}
			interior[v] = true
		}
	}
	if st := n.Stats(); st.Failovers != 1 {
		t.Errorf("Failovers = %d", st.Failovers)
	}
}

func TestQBERSpikeDemotesAndReroutes(t *testing.T) {
	n, _ := stripeNet(t, 2, 1<<15, 2)
	tr, err := n.NewTransport("gwA", "gwB", 2048, 1, TransportOpts{ChunkBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	// Feed the active route's first edge a QBER spike: the link stays
	// up and stocked, but the monitor must demote it past the
	// threshold and the transport must walk away from it.
	route := tr.Routes()[0]
	var victim *Edge
	for _, e := range n.Edges() {
		if (e.A == route[0] && e.B == route[1]) || (e.A == route[1] && e.B == route[0]) {
			victim = e
		}
	}
	for i := 0; i < 8; i++ {
		victim.ObserveQBER(0.25)
	}
	if !victim.Demoted() {
		t.Fatal("edge not demoted after sustained QBER spike")
	}
	if err := tr.Run(16); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d.Reroutes != 1 {
		t.Errorf("reroutes = %d, want 1", d.Reroutes)
	}
	for _, hopA := range d.Routes[0] {
		if hopA == route[1] {
			t.Errorf("final route %v still uses the demoted relay %s", d.Routes[0], route[1])
		}
	}
	if st := n.Stats(); st.Demotions != 1 {
		t.Errorf("Demotions = %d", st.Demotions)
	}
}

func TestFailedTransportLeavesPoolsUntouched(t *testing.T) {
	n, rn := stripeNet(t, 2, 8192, 1)
	snapshot := func() map[string]int {
		out := map[string]int{}
		for _, l := range rn.Links() {
			out[l.A+"|"+l.B] = l.KeyAvailable()
		}
		return out
	}
	before := snapshot()
	// More stripes than disjoint paths: fails before reserving.
	if _, err := n.NewTransport("gwA", "gwB", 512, 3, TransportOpts{}); !errors.Is(err, ErrDisjoint) {
		t.Fatalf("err = %v, want ErrDisjoint", err)
	}
	// A hop that runs short between routing and reservation fails the
	// route after its first hop reserved: that hop must be refunded.
	routes, err := n.DisjointPaths("gwA", "gwB", 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	last := rn.Link(routes[0].Nodes[1], "gwB")
	held, err := last.Pool().Reserve(last.KeyAvailable() - 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reserveRoute(routes[0], 512); err == nil {
		t.Fatal("reservation succeeded past a short hop")
	}
	held.Release()
	after := snapshot()
	for k, v := range before {
		if after[k] != v {
			t.Errorf("pool %s: %d -> %d across failed transports", k, v, after[k])
		}
	}
	if st := n.Stats(); st.TransportsFailed != 1 {
		t.Errorf("TransportsFailed = %d, want 1", st.TransportsFailed)
	}
}

func TestCustodyFeedsAcrossFailover(t *testing.T) {
	n, rn := stripeNet(t, 3, 1<<15, 2)
	kdsA, kdsB := kms.New(kms.Config{}), kms.New(kms.Config{})
	defer kdsA.Close()
	defer kdsB.Close()
	feedA, err := kdsA.AttachSource("qnet")
	if err != nil {
		t.Fatal(err)
	}
	feedB, _ := kdsB.AttachSource("qnet")

	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{
		ChunkBits: 256, FeedA: feedA, FeedB: feedB,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A consumer on each side wants the whole key; it must block
	// through the failover and then receive bits identical to the
	// peer's — never an error, never a gap.
	poolA, poolB := kdsA.PoolView(kms.ClassOTP), kdsB.PoolView(kms.ClassOTP)
	doneA, doneB := make(chan error, 1), make(chan error, 1)
	go func() {
		bits, err := poolA.Consume(2048, 10*time.Second)
		if err == nil && !bits.Equal(tr.key) {
			err = errors.New("side A key mismatch")
		}
		doneA <- err
	}()
	go func() {
		bits, err := poolB.Consume(2048, 10*time.Second)
		if err == nil && !bits.Equal(tr.key) {
			err = errors.New("side B key mismatch")
		}
		doneB <- err
	}()

	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	cutFirstHop(t, rn, tr.Routes()[0])
	if err := tr.Run(16); err != nil {
		t.Fatal(err)
	}
	if err := <-doneA; err != nil {
		t.Errorf("consumer A: %v", err)
	}
	if err := <-doneB; err != nil {
		t.Errorf("consumer B: %v", err)
	}
	// The failover window buffered deposits in custody and flushed
	// them all: nothing lost.
	fs := feedA.Stats()
	if fs.BufferedBits == 0 {
		t.Error("failover buffered nothing in custody")
	}
	if fs.BufferedBits != fs.FlushedBits {
		t.Errorf("custody lost bits: %d buffered, %d flushed", fs.BufferedBits, fs.FlushedBits)
	}
	if fs.DepositedBits != 2048 {
		t.Errorf("feed saw %d bits, want 2048", fs.DepositedBits)
	}
}

func TestSelfTransport(t *testing.T) {
	n, _ := stripeNet(t, 1, 1024, 1)
	tr, err := n.NewTransport("gwA", "gwA", 256, 3, TransportOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Fatal("self-transport not immediately done")
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d.Key.Len() != 256 || len(d.ShareBitsSeen) != 0 {
		t.Errorf("self delivery: %d bits, exposure %v", d.Key.Len(), d.ShareBitsSeen)
	}
}

func TestLightPathEdge(t *testing.T) {
	// A light path through two switches joins the unified graph as one
	// untrusted edge: interior switches never appear in routes or
	// exposure, and the edge distills key each Tick.
	mesh := optical.NewMesh()
	mesh.AddEndpoint("gwA")
	mesh.AddEndpoint("gwB")
	mesh.AddSwitch("s1", 0.5)
	mesh.AddSwitch("s2", 0.5)
	mesh.Connect("gwA", "s1", 5)
	mesh.Connect("s1", "s2", 5)
	mesh.Connect("s2", "gwB", 5)

	rn := relay.NewNetwork(3)
	rn.AddNode("gwA")
	rn.AddNode("gwB")
	rn.AddNode("r0")
	rn.AddLink("gwA", "r0", 1<<14)
	rn.AddLink("r0", "gwB", 1<<14)

	n := NewNetwork(Config{Seed: 5})
	n.RegisterRelay(rn)
	e, err := n.RegisterLightPath(mesh, "gwA", "gwB", photonics.DefaultParams(), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != Untrusted {
		t.Fatalf("kind %v", e.Kind)
	}
	if e.rate <= 0 {
		t.Fatalf("light path distills %d bits/tick", e.rate)
	}
	for e.Available() < 512 {
		n.Tick()
	}
	// k=2: one stripe over the relay, one over the light path.
	tr, err := n.NewTransport("gwA", "gwB", 512, 2, TransportOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(4); err != nil {
		t.Fatal(err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	direct := false
	for _, r := range d.Routes {
		if len(r) == 2 {
			direct = true
		}
		for _, v := range r {
			if v == "s1" || v == "s2" {
				t.Errorf("switch leaked into route %v", r)
			}
		}
	}
	if !direct {
		t.Errorf("no stripe took the light path: %v", d.Routes)
	}
	if bits := d.ShareBitsSeen["r0"]; bits != 512 {
		t.Errorf("relay saw %d share bits", bits)
	}
	if d.KeyBitsExposed["r0"] != 0 {
		t.Error("relay can reconstruct key despite striping")
	}
}

// ---------------------------------------------------------------------
// Benchmarks: bench.sh qnet group -> BENCH_qnet.json
// ---------------------------------------------------------------------

func benchStripe(b *testing.B, k int) {
	n, _ := stripeNet(b, 4, 1<<20, 1)
	const nbits = 256
	b.SetBytes(nbits / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			b.StopTimer()
			n.Tick()
			b.StartTimer()
		}
		tr, err := n.NewTransport("gwA", "gwB", nbits, k, TransportOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Run(2); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQnet_Stripe1Path(b *testing.B) { benchStripe(b, 1) }
func BenchmarkQnet_Stripe2Path(b *testing.B) { benchStripe(b, 2) }
func BenchmarkQnet_Stripe3Path(b *testing.B) { benchStripe(b, 3) }

func TestFailoverAvoidsSitesHoldingOtherShares(t *testing.T) {
	// Security accounting regression: the failover ban must cover sites
	// with *historical* exposure to another share, not just the other
	// stripes' current interiors — a site holding two different shares
	// of the same chunk range could reconstruct key bits.
	n, rn := stripeNet(t, 3, 1<<15, 2)
	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{ChunkBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	// The spare relay is the only one not carrying a stripe.
	used := map[string]bool{}
	for _, r := range tr.Routes() {
		used[r[1]] = true
	}
	var spare string
	for i := 0; i < 3; i++ {
		if r := fmt.Sprintf("r%d", i); !used[r] {
			spare = r
		}
	}
	// Pretend the spare relay once carried stripe 1's share (a route
	// that has since failed over): stripe 0's failover must not route
	// through it even though no current stripe uses it.
	tr.expose(spare, 1, 0)
	cutFirstHop(t, rn, tr.Routes()[0])
	if err := tr.Run(16); err == nil {
		d, ferr := tr.Finish()
		if ferr != nil {
			t.Fatal(ferr)
		}
		for _, r := range d.Routes {
			for _, v := range r[1 : len(r)-1] {
				if v == spare {
					t.Fatalf("failover routed share 0 through %s, which held share 1", v)
				}
			}
		}
		for node, bits := range d.KeyBitsExposed {
			if bits != 0 {
				t.Errorf("%s can reconstruct %d key bits", node, bits)
			}
		}
	} else {
		// With the spare banned there is no replacement path: aborting
		// is the correct, conservative outcome.
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("err = %v, want ErrFailed", err)
		}
	}
}

func TestAbortRefundsReservationsAndFlushesFeeds(t *testing.T) {
	n, rn := stripeNet(t, 2, 8192, 1)
	kds := kms.New(kms.Config{})
	defer kds.Close()
	feed, err := kds.AttachSource("qnet")
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]int{}
	for _, l := range rn.Links() {
		before[l.A+"|"+l.B] = l.KeyAvailable()
	}
	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{ChunkBits: 256, FeedA: feed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil { // one chunk delivered per stripe
		t.Fatal(err)
	}
	feed.SetUp(false) // simulate an in-flight custody window
	tr.custody = true
	tr.Abort()
	// Only the delivered chunk's pads are gone; the rest refunded.
	for _, l := range rn.Links() {
		if got := before[l.A+"|"+l.B] - l.KeyAvailable(); got != 256 {
			t.Errorf("link %s-%s net consumption %d after abort, want 256", l.A, l.B, got)
		}
	}
	if !feed.Up() {
		t.Error("abort left the custody feed down")
	}
	if _, err := tr.Step(); !errors.Is(err, ErrFailed) {
		t.Errorf("step after abort: %v, want ErrFailed", err)
	}
	tr.Abort() // idempotent
	if st := n.Stats(); st.TransportsFailed != 1 {
		t.Errorf("TransportsFailed = %d, want 1", st.TransportsFailed)
	}
}

func TestParkedStripeResumesAfterRestore(t *testing.T) {
	// Repeated-cut robustness: with no disjoint spare, a dead stripe
	// parks inside the stall budget instead of aborting — and when the
	// fiber is repaired mid-transport, the stripe resumes at its frozen
	// cursor and the transport completes.
	n, rn := stripeNet(t, 2, 1<<15, 2) // k=2 over exactly 2 relays: no spare
	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{ChunkBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	a, b := cutFirstHop(t, rn, tr.Routes()[0])
	// Three rounds with the link down: failover has nowhere to go, the
	// stripe parks, delivery stalls — but nothing aborts.
	deliveredBefore := tr.DeliveredBits()
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatalf("step %d during outage: %v (want parked, not aborted)", i, err)
		}
	}
	if tr.Done() {
		t.Fatal("transport finished with a stripe down — reconstruction needs all k shares")
	}
	if tr.DeliveredBits() != deliveredBefore {
		t.Errorf("delivered advanced %d -> %d bits during the outage",
			deliveredBefore, tr.DeliveredBits())
	}
	// Fiber repaired; the fresh pool starts empty, so recharge it.
	if err := rn.Restore(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		n.Tick()
	}
	if err := tr.Run(16); err != nil {
		t.Fatalf("post-restore run: %v", err)
	}
	d, err := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if d.Key.Len() != 2048 {
		t.Errorf("delivered %d bits, want 2048", d.Key.Len())
	}
	if d.Reroutes != 1 {
		t.Errorf("reroutes = %d, want 1 (resume re-reserves on the repaired span)", d.Reroutes)
	}
	for node, bits := range d.KeyBitsExposed {
		if bits != 0 {
			t.Errorf("%s can reconstruct %d key bits, want 0", node, bits)
		}
	}
}

func TestStallBudgetExhaustionAbortsAndRefunds(t *testing.T) {
	n, rn := stripeNet(t, 2, 1<<15, 2)
	before := map[string]int{}
	for _, l := range rn.Links() {
		before[l.A+"|"+l.B] = l.KeyAvailable()
	}
	tr, err := n.NewTransport("gwA", "gwB", 2048, 2, TransportOpts{ChunkBits: 256, StallBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	victim := tr.Routes()[0][1] // the relay whose uplink dies
	cutFirstHop(t, rn, tr.Routes()[0])
	// Rounds 1-2 park; round 3 exceeds the budget and aborts.
	for i := 0; i < 2; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatalf("step %d within stall budget: %v", i, err)
		}
	}
	if _, err := tr.Step(); !errors.Is(err, ErrFailed) {
		t.Fatalf("step past stall budget: %v, want ErrFailed", err)
	}
	// Undrawn pads were refunded on every surviving pool: the healthy
	// stripe's hops net out to the 3 chunks actually sent; the parked
	// stripe's still-up downlink nets out to its 1 pre-cut chunk.
	for _, l := range rn.Links() {
		if l.State() != relay.LinkUp {
			continue // the cut link's pool died with the fiber
		}
		want := 3 * 256
		if l.A == victim || l.B == victim {
			want = 256
		}
		if got := before[l.A+"|"+l.B] - l.KeyAvailable(); got != want {
			t.Errorf("link %s-%s net consumption %d after abort, want %d",
				l.A, l.B, got, want)
		}
	}
}
