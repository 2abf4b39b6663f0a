package relay

import (
	"errors"
	"testing"

	"qkd/internal/keypool"
)

// ring builds A-B-C-D-A with a chord A-C.
func ring(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork(1)
	for _, name := range []string{"A", "B", "C", "D"} {
		n.AddNode(name)
	}
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}, {"A", "C"}} {
		if _, err := n.AddLink(e[0], e[1], 4096); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestTransportDirectLink(t *testing.T) {
	n := ring(t)
	n.Tick()
	d, err := n.TransportKey("A", "B", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.Key.Len() != 1024 {
		t.Errorf("key length %d", d.Key.Len())
	}
	if len(d.Path) != 2 || d.Path[0] != "A" || d.Path[1] != "B" {
		t.Errorf("path %v", d.Path)
	}
	if len(d.Exposed) != 0 {
		t.Errorf("direct link exposed %v", d.Exposed)
	}
}

func TestTransportMultiHopExposesRelays(t *testing.T) {
	n := ring(t)
	n.Tick()
	// Remove the direct and chord options: B-C forced through nothing...
	// B to D: shortest is B-A-D or B-C-D (2 hops).
	d, err := n.TransportKey("B", "D", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Path) != 3 {
		t.Fatalf("path %v, want 2 hops", d.Path)
	}
	if len(d.Exposed) != 1 {
		t.Fatalf("exposed %v, want exactly the middle relay", d.Exposed)
	}
	if d.Exposed[0] != d.Path[1] {
		t.Error("exposure list does not match path interior")
	}
}

func TestTransportConsumesPairwiseKey(t *testing.T) {
	n := ring(t)
	n.Tick() // 4096 bits per link
	l := n.Link("A", "B")
	before := l.KeyAvailable()
	if _, err := n.TransportKey("A", "B", 1000); err != nil {
		t.Fatal(err)
	}
	if after := l.KeyAvailable(); before-after != 1000 {
		t.Errorf("link consumed %d bits, want 1000", before-after)
	}
}

func TestRerouteAroundCut(t *testing.T) {
	n := ring(t)
	n.Tick()
	if err := n.Cut("A", "B"); err != nil {
		t.Fatal(err)
	}
	d, err := n.TransportKey("A", "B", 512)
	if err != nil {
		t.Fatalf("no delivery after cut: %v", err)
	}
	if len(d.Path) < 3 {
		t.Errorf("path %v should avoid the cut link", d.Path)
	}
	for i := 0; i+1 < len(d.Path); i++ {
		if (d.Path[i] == "A" && d.Path[i+1] == "B") || (d.Path[i] == "B" && d.Path[i+1] == "A") {
			t.Error("path used the cut link")
		}
	}
}

func TestRerouteAroundEavesdropper(t *testing.T) {
	n := ring(t)
	n.Tick()
	if err := n.Eavesdrop("A", "C"); err != nil {
		t.Fatal(err)
	}
	// The compromised link's key is gone and it no longer replenishes.
	n.Tick()
	if got := n.Link("A", "C").KeyAvailable(); got != 0 {
		t.Errorf("eavesdropped link still holds %d bits", got)
	}
	d, err := n.TransportKey("A", "C", 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(d.Path); i++ {
		if (d.Path[i] == "A" && d.Path[i+1] == "C") || (d.Path[i] == "C" && d.Path[i+1] == "A") {
			t.Error("path used the eavesdropped link")
		}
	}
}

func TestPartitionFailsDelivery(t *testing.T) {
	n := ring(t)
	n.Tick()
	// Cut every link touching A.
	n.Cut("A", "B")
	n.Cut("D", "A")
	n.Cut("A", "C")
	if _, err := n.TransportKey("A", "C", 64); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if st := n.Stats(); st.DeliveryFailed != 1 {
		t.Errorf("DeliveryFailed = %d", st.DeliveryFailed)
	}
}

func TestRestoreResumesService(t *testing.T) {
	n := ring(t)
	n.Cut("A", "B")
	n.Cut("D", "A")
	n.Cut("A", "C")
	n.Restore("A", "B")
	n.Tick()
	if _, err := n.TransportKey("A", "B", 64); err != nil {
		t.Fatalf("restored link unusable: %v", err)
	}
}

func TestInsufficientKeyRoutesAround(t *testing.T) {
	n := ring(t)
	n.Tick()
	// Drain the direct A-B link below the request size.
	l := n.Link("A", "B")
	l.pool.TryConsume(l.KeyAvailable() - 100)
	d, err := n.TransportKey("A", "B", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Path) == 2 {
		t.Error("path used the key-starved direct link")
	}
}

func TestKeyRegenerationOverTicks(t *testing.T) {
	n := NewNetwork(3)
	n.AddNode("X")
	n.AddNode("Y")
	n.AddLink("X", "Y", 1000)
	for i := 0; i < 5; i++ {
		n.Tick()
	}
	if got := n.Link("X", "Y").KeyAvailable(); got != 5000 {
		t.Errorf("KeyAvailable = %d, want 5000", got)
	}
	// Consume continuously at production rate: sustainable.
	for i := 0; i < 20; i++ {
		n.Tick()
		if _, err := n.TransportKey("X", "Y", 1000); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
}

func TestTopologyCosts(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	full := FullMesh(1, 100, names...)
	if got := full.LinkCount(); got != 15 { // 6*5/2
		t.Errorf("full mesh links = %d, want 15", got)
	}
	star := Star(1, 100, "hub", names...)
	if got := star.LinkCount(); got != 6 {
		t.Errorf("star links = %d, want 6", got)
	}
	// Star still connects any pair (through the hub).
	star.Tick()
	d, err := star.TransportKey("a", "f", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Exposed) != 1 || d.Exposed[0] != "hub" {
		t.Errorf("star delivery exposed %v, want [hub]", d.Exposed)
	}
}

func TestUnknownNodesRejected(t *testing.T) {
	n := NewNetwork(1)
	n.AddNode("A")
	if _, err := n.AddLink("A", "ghost", 10); err == nil {
		t.Error("link to unknown node accepted")
	}
	if _, err := n.TransportKey("A", "ghost", 10); err == nil {
		t.Error("transport to unknown node accepted")
	}
}

func TestDuplicateLinkRejected(t *testing.T) {
	n := NewNetwork(1)
	n.AddNode("A")
	n.AddNode("B")
	if _, err := n.AddLink("A", "B", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink("B", "A", 10); !errors.Is(err, ErrLinkExists) {
		t.Errorf("duplicate (reversed) link: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := ring(t)
	n.Tick()
	n.TransportKey("A", "B", 100)
	n.TransportKey("B", "D", 100)
	st := n.Stats()
	if st.KeysDelivered != 2 {
		t.Errorf("KeysDelivered = %d", st.KeysDelivered)
	}
	if st.BitsTransported != 100+200 { // 1 hop + 2 hops
		t.Errorf("BitsTransported = %d", st.BitsTransported)
	}
}

func BenchmarkTransport6NodeMesh(b *testing.B) {
	n := FullMesh(1, 1<<20, "a", "b", "c", "d", "e", "f")
	n.Tick()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			n.Tick()
		}
		if _, err := n.TransportKey("a", "f", 256); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTransportMessage(t *testing.T) {
	n := ring(t)
	n.Tick()
	msg := []byte("message traffic over the link-encryption variant")
	d, err := n.TransportMessage("B", "D", msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != string(msg) {
		t.Fatalf("payload corrupted: %q", d.Payload)
	}
	if d.PadBitsUsed != 8*len(msg)*(len(d.Path)-1) {
		t.Errorf("PadBitsUsed = %d", d.PadBitsUsed)
	}
	if len(d.Exposed) == 0 {
		t.Error("multi-hop message transport must expose relays")
	}
}

func TestTransportMessageConsumesPerHop(t *testing.T) {
	n := ring(t)
	n.Tick()
	msg := make([]byte, 100)
	before := n.Link("B", "C").KeyAvailable()
	d, err := n.TransportMessage("B", "D", msg)
	if err != nil {
		t.Fatal(err)
	}
	// Whichever 2-hop path was taken consumed 800 bits per link on it.
	for i := 0; i+1 < len(d.Path); i++ {
		_ = before
		l := n.Link(d.Path[i], d.Path[i+1])
		if l.KeyAvailable() != 4096-800 {
			t.Errorf("link %s-%s has %d bits, want %d", l.A, l.B, l.KeyAvailable(), 4096-800)
		}
	}
}

func TestCutReleasesBlockedWaitersFast(t *testing.T) {
	// Tearing a link down closes its pool: consumers on the dead link
	// fail at once with keypool.ErrClosed.
	n := ring(t)
	l := n.Link("A", "B")
	n.Tick()
	if err := n.Cut("A", "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Pool().TryConsume(64); !errors.Is(err, keypool.ErrClosed) {
		t.Fatalf("consumer on cut link: %v", err)
	}
}

func TestEavesdropReleasesBlockedWaitersFast(t *testing.T) {
	n := ring(t)
	l := n.Link("A", "C")
	if err := n.Eavesdrop("A", "C"); err != nil {
		t.Fatal(err)
	}
	// The abandoned link keeps failing fast until restored...
	if _, err := l.Pool().TryConsume(1); !errors.Is(err, keypool.ErrClosed) {
		t.Fatalf("abandoned link pool: %v", err)
	}
	// ...and Restore brings up a fresh, usable pool.
	if err := n.Restore("A", "C"); err != nil {
		t.Fatal(err)
	}
	n.Tick()
	if got := l.KeyAvailable(); got != 4096 {
		t.Fatalf("restored link holds %d bits, want 4096", got)
	}
	if _, err := l.Pool().TryConsume(64); err != nil {
		t.Fatalf("restored link unusable: %v", err)
	}
}

func TestRestoreReleasesPreOutageWaiters(t *testing.T) {
	// A consumer holding the pool from before the outage must not reach
	// the restored link's key through it.
	n := ring(t)
	l := n.Link("A", "B")
	n.Cut("A", "B")
	// Grab the (closed) pool handle as a stale consumer would.
	stale := l.Pool()
	if err := n.Restore("A", "B"); err != nil {
		t.Fatal(err)
	}
	n.Tick()
	if _, err := stale.TryConsume(64); !errors.Is(err, keypool.ErrClosed) {
		t.Fatalf("stale pool handle: %v", err)
	}
	n.Tick()
	if _, err := l.Pool().TryConsume(64); err != nil {
		t.Fatalf("fresh pool after restore: %v", err)
	}
}

// ---------------------------------------------------------------------
// Failure paths: self-transport, mid-path exhaustion, restore re-use
// ---------------------------------------------------------------------

func TestSelfTransportReturnsKeyWithoutPads(t *testing.T) {
	// Regression: TransportKey(src, src, n) used to panic slicing
	// Exposed out of the single-node path [src].
	n := ring(t)
	n.Tick()
	before := n.Link("A", "B").KeyAvailable()
	d, err := n.TransportKey("A", "A", 512)
	if err != nil {
		t.Fatal(err)
	}
	if d.Key.Len() != 512 {
		t.Errorf("key length %d, want 512", d.Key.Len())
	}
	if len(d.Path) != 1 || d.Path[0] != "A" {
		t.Errorf("path %v, want [A]", d.Path)
	}
	if len(d.Exposed) != 0 {
		t.Errorf("self-transport exposed %v", d.Exposed)
	}
	if after := n.Link("A", "B").KeyAvailable(); after != before {
		t.Errorf("self-transport consumed %d pad bits", before-after)
	}
	if st := n.Stats(); st.KeysDelivered != 1 || st.BitsTransported != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSelfTransportMessage(t *testing.T) {
	n := ring(t)
	n.Tick()
	msg := []byte("to myself")
	d, err := n.TransportMessage("B", "B", msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != string(msg) {
		t.Errorf("payload %q", d.Payload)
	}
	if d.PadBitsUsed != 0 || len(d.Exposed) != 0 {
		t.Errorf("self message used %d pad bits, exposed %v", d.PadBitsUsed, d.Exposed)
	}
}

// line builds A-B-C, so every A<->C transport must cross B.
func line(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork(2)
	for _, name := range []string{"A", "B", "C"} {
		n.AddNode(name)
	}
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}} {
		if _, err := n.AddLink(e[0], e[1], 4096); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestMidPathExhaustionRefundsEarlierHops(t *testing.T) {
	// Regression for the pad-burn leak: when a later hop cannot supply
	// its pad, pads already taken on earlier hops used to be silently
	// destroyed. With pre-reservation the failed transport must leave
	// every traversed pool's balance exactly as it found it.
	n := line(t)
	n.Tick()
	ab, bc := n.Link("A", "B"), n.Link("B", "C")
	abBefore, bcBefore := ab.KeyAvailable(), bc.KeyAvailable()

	// B-C runs short between routing and reservation: the second hop
	// fails after the first reserved.
	held, err := bc.Pool().Reserve(bcBefore - 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.reservePath([]string{"A", "B", "C"}, 512); err == nil {
		t.Fatal("reservation succeeded past a short hop")
	}
	held.Release()
	if got := ab.KeyAvailable(); got != abBefore {
		t.Errorf("A-B drained to %d on failed delivery, want %d untouched", got, abBefore)
	}
	if got := bc.KeyAvailable(); got != bcBefore {
		t.Errorf("B-C drained to %d on failed delivery, want %d untouched", got, bcBefore)
	}
	st := n.Stats()
	if st.DeliveryFailed != 1 {
		t.Errorf("DeliveryFailed = %d", st.DeliveryFailed)
	}
	if st.BitsRefunded != 512 {
		t.Errorf("BitsRefunded = %d, want the 512 reserved on A-B", st.BitsRefunded)
	}
	// The refund kept the pool whole: the same transport succeeds now.
	if _, err := n.TransportKey("A", "C", 512); err != nil {
		t.Fatalf("transport after refund: %v", err)
	}
}

func TestRestoreAfterEavesdropRetransports(t *testing.T) {
	n := ring(t)
	n.Tick()
	if err := n.Eavesdrop("A", "B"); err != nil {
		t.Fatal(err)
	}
	// While abandoned, transports route around the compromised link.
	d, err := n.TransportKey("A", "B", 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Path) == 2 {
		t.Error("transport used the eavesdropped link")
	}
	if err := n.Restore("A", "B"); err != nil {
		t.Fatal(err)
	}
	n.Tick() // fresh pairwise key on the repaired link
	d, err = n.TransportKey("A", "B", 256)
	if err != nil {
		t.Fatalf("re-transport after restore: %v", err)
	}
	if len(d.Path) != 2 {
		t.Errorf("restored direct link unused: path %v", d.Path)
	}
	if got := n.Link("A", "B").KeyAvailable(); got != 4096-256 {
		t.Errorf("restored link balance %d, want %d", got, 4096-256)
	}
}
