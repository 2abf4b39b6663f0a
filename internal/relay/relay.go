// Package relay implements the trusted-relay QKD network of Section 8:
// a mesh of nodes joined by point-to-point QKD links, where end-to-end
// keys are transported "hop by hop from one endpoint to the other,
// being onetime-pad encrypted and decrypted with each pairwise key as
// it proceeds from one relay to the next."
//
// The properties the paper claims for such meshes — and experiments E9
// exercises — are built in:
//
//   - robustness: when a link fails (fiber cut) or raises the
//     eavesdropping alarm (QBER spike), it is abandoned and key
//     transport re-routes over surviving links;
//   - the trust cost: every intermediate relay on a delivery path holds
//     the end-to-end key in the clear, and the API reports exactly
//     which nodes were exposed;
//   - the economics: a star topology needs N links where pairwise
//     point-to-point needs N(N-1)/2.
//
// Pairwise link keys come from an abstracted per-link QKD process (the
// photonic simulation of package photonics, distilled by package core,
// summarized here as a replenishment rate), because a relay network's
// behaviour depends only on each link's distilled-key arrival rate and
// health.
package relay

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"qkd/internal/bitarray"
	"qkd/internal/keypool"
	"qkd/internal/rng"
)

// Errors.
var (
	ErrNoPath      = errors.New("relay: no usable path between endpoints")
	ErrUnknownNode = errors.New("relay: unknown node")
	ErrLinkExists  = errors.New("relay: link already exists")
)

// LinkState describes a link's health.
type LinkState int

const (
	// LinkUp is healthy and producing key.
	LinkUp LinkState = iota
	// LinkCut has lost its fiber; no key flows and it cannot carry
	// transport.
	LinkCut
	// LinkEavesdropped has raised the QBER alarm. Its pairwise key is
	// discarded (it may be known to Eve) and it is abandoned.
	LinkEavesdropped
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkCut:
		return "cut"
	case LinkEavesdropped:
		return "eavesdropped"
	}
	return fmt.Sprintf("LinkState(%d)", int(s))
}

// Link is one point-to-point QKD link inside the mesh. Its reservoir
// models the synchronized pairwise key held at both endpoints.
type Link struct {
	A, B string
	// RateBits is the distilled bits deposited per Tick while up.
	RateBits int

	mu    sync.Mutex
	state LinkState
	pool  *keypool.Reservoir
}

// State returns the link's health.
func (l *Link) State() LinkState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// Pool returns the link's pairwise-key reservoir. While the link is
// down (cut or eavesdropped) the reservoir is closed, so blocked
// withdrawals fail fast with keypool.ErrClosed instead of sitting out
// their timeouts; Restore installs a fresh reservoir. Callers that
// block on a link must therefore re-fetch the pool per withdrawal
// rather than caching it across outages.
func (l *Link) Pool() *keypool.Reservoir {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pool
}

// KeyAvailable returns the pairwise key on hand.
func (l *Link) KeyAvailable() int { return l.Pool().Available() }

// Network is the relay mesh.
type Network struct {
	mu    sync.Mutex
	nodes map[string]bool
	links map[string]*Link // canonical "a|b" with a < b
	rand  *rng.SplitMix64

	stats Stats
}

// Stats counts network activity.
type Stats struct {
	KeysDelivered   uint64
	DeliveryFailed  uint64
	BitsTransported uint64
	Reroutes        uint64
	// BitsRefunded counts pairwise key reserved for a transport that
	// failed before using it — refunded to its pool instead of burned.
	BitsRefunded uint64
}

// NewNetwork returns an empty mesh seeded for key generation.
func NewNetwork(seed uint64) *Network {
	return &Network{
		nodes: make(map[string]bool),
		links: make(map[string]*Link),
		rand:  rng.NewSplitMix64(seed),
	}
}

// AddNode registers a relay or endpoint.
func (n *Network) AddNode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[name] = true
}

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// AddLink joins two registered nodes with a QKD link replenishing
// rateBits per Tick.
func (n *Network) AddLink(a, b string, rateBits int) (*Link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[a] || !n.nodes[b] {
		return nil, fmt.Errorf("%w: %s or %s", ErrUnknownNode, a, b)
	}
	k := linkKey(a, b)
	if _, ok := n.links[k]; ok {
		return nil, fmt.Errorf("%w: %s", ErrLinkExists, k)
	}
	l := &Link{A: a, B: b, RateBits: rateBits, pool: keypool.New()}
	n.links[k] = l
	return l, nil
}

// Link returns the link between a and b, or nil.
func (n *Network) Link(a, b string) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[linkKey(a, b)]
}

// Links returns all links (sorted by canonical name, for stable output).
func (n *Network) Links() []*Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]string, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Link, len(keys))
	for i, k := range keys {
		out[i] = n.links[k]
	}
	return out
}

// Stats returns a snapshot.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Tick advances every link's QKD process one step: healthy links
// deposit RateBits of fresh pairwise key; an eavesdropped link raises
// its alarm here (the QBER spike is noticed at the next distillation
// batch) and discards its compromised pool.
func (n *Network) Tick() {
	for _, l := range n.Links() {
		// Draw the fresh bits before taking l.mu: randBits locks n.mu,
		// and findPath nests l.mu under n.mu, so generating under l.mu
		// would close a Link.mu→Network.mu→Link.mu deadlock cycle.
		if l.State() != LinkUp {
			continue
		}
		fresh := n.randBits(l.RateBits)
		l.mu.Lock()
		if l.state == LinkUp { // may have been cut or eavesdropped since
			l.pool.Deposit(fresh)
		}
		l.mu.Unlock()
	}
}

func (n *Network) randBits(bits int) *bitarray.BitArray {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rand.Bits(bits)
}

// Cut severs a link's fiber. The pairwise pool is closed so consumers
// blocked on it fail fast with keypool.ErrClosed (and late arrivals
// fail immediately) instead of waiting out their timeouts on a link
// that will never replenish.
func (n *Network) Cut(a, b string) error {
	l := n.Link(a, b)
	if l == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownNode, a, b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state = LinkCut
	l.pool.Close()
	return nil
}

// Eavesdrop places Eve on a link: the QBER alarm fires, the link is
// abandoned, and its pairwise key pool — potentially known to Eve — is
// destroyed.
func (n *Network) Eavesdrop(a, b string) error {
	l := n.Link(a, b)
	if l == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownNode, a, b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state = LinkEavesdropped
	// Closing discards the compromised key and releases every blocked
	// waiter with keypool.ErrClosed. The closed pool stays installed
	// while the link is abandoned so later consumers also fail fast
	// (a fresh open pool here would block them until timeout on a link
	// that is never replenished).
	l.pool.Close()
	return nil
}

// Restore repairs a link (new fiber / Eve gone); its pool restarts
// empty. The old pool is closed first so any waiter still blocked from
// before the outage fails fast instead of silently re-attaching to a
// reservoir that no longer exists.
func (n *Network) Restore(a, b string) error {
	l := n.Link(a, b)
	if l == nil {
		return fmt.Errorf("%w: %s-%s", ErrUnknownNode, a, b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state = LinkUp
	l.pool.Close()
	l.pool = keypool.New()
	return nil
}

// Delivery is the outcome of one end-to-end key transport.
type Delivery struct {
	// Key is the transported end-to-end key.
	Key *bitarray.BitArray
	// Path is the node sequence used.
	Path []string
	// Exposed lists the intermediate relays that held Key in the clear
	// — the trust cost of the trusted-relay architecture.
	Exposed []string
}

// reservePath sets aside nbits of pairwise key on every hop of path
// before any of it is used — all-or-nothing, so a hop that cannot be
// reserved costs the earlier hops nothing (the pad-burn leak the old
// consume-as-you-go transport had). On failure every reservation made
// so far is refunded and the failure is accounted.
func (n *Network) reservePath(path []string, nbits int) ([]*keypool.Reservation, error) {
	resvs := make([]*keypool.Reservation, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		l := n.Link(path[i], path[i+1])
		rv, err := l.Pool().Reserve(nbits)
		if err != nil {
			n.releaseAll(resvs)
			n.mu.Lock()
			n.stats.DeliveryFailed++
			n.mu.Unlock()
			return nil, fmt.Errorf("relay: pairwise key on %s-%s vanished: %w", l.A, l.B, err)
		}
		resvs = append(resvs, rv)
	}
	return resvs, nil
}

// releaseAll refunds the undrawn remainder of every reservation.
func (n *Network) releaseAll(resvs []*keypool.Reservation) {
	var refunded uint64
	for _, rv := range resvs {
		refunded += uint64(rv.Remaining())
		rv.Release()
	}
	if refunded > 0 {
		n.mu.Lock()
		n.stats.BitsRefunded += refunded
		n.mu.Unlock()
	}
}

// TransportKey generates an nbits end-to-end key at src and relays it
// hop-by-hop to dst, consuming nbits of pairwise key per hop. Paths
// avoid unhealthy links and links with insufficient pairwise key, and
// every hop's pad is reserved before any is consumed: a transport that
// cannot complete refunds the pools it touched.
func (n *Network) TransportKey(src, dst string, nbits int) (*Delivery, error) {
	path, err := n.findPath(src, dst, nbits)
	if err != nil {
		n.mu.Lock()
		n.stats.DeliveryFailed++
		n.mu.Unlock()
		return nil, err
	}
	// Generate the end-to-end key at the source.
	key := n.randBits(nbits)
	if len(path) < 2 {
		// Self-transport: the key never leaves src — no hops, no pad
		// consumption, nothing exposed.
		n.mu.Lock()
		n.stats.KeysDelivered++
		n.mu.Unlock()
		return &Delivery{Key: key, Path: path}, nil
	}
	resvs, err := n.reservePath(path, nbits)
	if err != nil {
		return nil, err
	}

	// Hop-by-hop one-time-pad transport: on the wire between u and v
	// the key is key XOR pad_uv; inside each relay it is briefly in the
	// clear.
	current := key.Clone()
	for i, rv := range resvs {
		pad, err := rv.Consume(nbits)
		if err != nil {
			// The link was torn down between reservation and use; pads
			// not yet on the wire go back to their pools.
			n.releaseAll(resvs[i+1:])
			n.mu.Lock()
			n.stats.DeliveryFailed++
			n.mu.Unlock()
			l := n.Link(path[i], path[i+1])
			return nil, fmt.Errorf("relay: pairwise key on %s-%s vanished: %w", l.A, l.B, err)
		}
		onWire := current.Clone()
		onWire.Xor(pad) // encrypt at u
		current = onWire
		current.Xor(pad) // decrypt at v — in the clear inside the relay
	}
	if !current.Equal(key) {
		return nil, errors.New("relay: transport corrupted the key")
	}
	n.mu.Lock()
	n.stats.KeysDelivered++
	n.stats.BitsTransported += uint64(nbits) * uint64(len(path)-1)
	n.mu.Unlock()
	return &Delivery{
		Key:     key,
		Path:    path,
		Exposed: append([]string(nil), path[1:len(path)-1]...),
	}, nil
}

// findPath BFSes over links that are up and hold at least nbits.
func (n *Network) findPath(src, dst string, nbits int) ([]string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.nodes[src] || !n.nodes[dst] {
		return nil, fmt.Errorf("%w: %s or %s", ErrUnknownNode, src, dst)
	}
	if src == dst {
		return []string{src}, nil
	}
	adj := make(map[string][]string)
	for _, l := range n.links {
		l.mu.Lock()
		ok := l.state == LinkUp && l.pool.Available() >= nbits
		l.mu.Unlock()
		if ok {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
	}
	for _, peers := range adj {
		sort.Strings(peers) // deterministic routing
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			var path []string
			for v := dst; ; v = prev[v] {
				path = append([]string{v}, path...)
				if v == src {
					return path, nil
				}
			}
		}
		for _, v := range adj[u] {
			if _, seen := prev[v]; !seen {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil, ErrNoPath
}

// FullMesh links every node pair: the N(N-1)/2 interconnect of the
// paper's cost discussion.
func FullMesh(seed uint64, rateBits int, names ...string) *Network {
	n := NewNetwork(seed)
	for _, name := range names {
		n.AddNode(name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			n.AddLink(names[i], names[j], rateBits)
		}
	}
	return n
}

// Star links every leaf to a hub: N links for N+1 nodes.
func Star(seed uint64, rateBits int, hub string, leaves ...string) *Network {
	n := NewNetwork(seed)
	n.AddNode(hub)
	for _, leaf := range leaves {
		n.AddNode(leaf)
		n.AddLink(hub, leaf, rateBits)
	}
	return n
}

// LinkCount returns the number of links in the mesh.
func (n *Network) LinkCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.links)
}

// MessageDelivery is the outcome of transporting message traffic (the
// paper's second network variant: "QKD relays may transport both keying
// material and message traffic ... uses QKD as a link encryption
// mechanism").
type MessageDelivery struct {
	Payload []byte
	Path    []string
	Exposed []string
	// PadBitsUsed is the pairwise key consumed: len(payload)*8 per hop.
	PadBitsUsed int
}

// TransportMessage carries payload hop-by-hop under per-link one-time
// pads: each link consumes 8*len(payload) bits of pairwise key, and the
// plaintext appears in the clear inside every intermediate relay. Pads
// are reserved on every hop before any is consumed, so a failed
// delivery refunds the pools it touched.
func (n *Network) TransportMessage(src, dst string, payload []byte) (*MessageDelivery, error) {
	nbits := 8 * len(payload)
	path, err := n.findPath(src, dst, nbits)
	if err != nil {
		n.mu.Lock()
		n.stats.DeliveryFailed++
		n.mu.Unlock()
		return nil, err
	}
	if len(path) < 2 {
		// Self-delivery: the payload never leaves src.
		n.mu.Lock()
		n.stats.KeysDelivered++
		n.mu.Unlock()
		return &MessageDelivery{Payload: append([]byte(nil), payload...), Path: path}, nil
	}
	resvs, err := n.reservePath(path, nbits)
	if err != nil {
		return nil, err
	}
	current := bitarray.FromBytes(payload)
	used := 0
	for i, rv := range resvs {
		pad, err := rv.Consume(nbits)
		if err != nil {
			n.releaseAll(resvs[i+1:])
			n.mu.Lock()
			n.stats.DeliveryFailed++
			n.mu.Unlock()
			l := n.Link(path[i], path[i+1])
			return nil, fmt.Errorf("relay: pairwise key on %s-%s vanished: %w", l.A, l.B, err)
		}
		used += nbits
		// Encrypt at the sending relay, decrypt at the receiving one;
		// between them only ciphertext crosses the link.
		onWire := current.Clone()
		onWire.Xor(pad)
		current = onWire
		current.Xor(pad)
	}
	n.mu.Lock()
	n.stats.KeysDelivered++
	n.stats.BitsTransported += uint64(used)
	n.mu.Unlock()
	return &MessageDelivery{
		Payload:     current.Bytes(),
		Path:        path,
		Exposed:     append([]string(nil), path[1:len(path)-1]...),
		PadBitsUsed: used,
	}, nil
}
