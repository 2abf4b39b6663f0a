// Package ipsec implements the traffic-processing half of the paper's
// Section 7: a Security Policy Database, a Security Association
// Database, and ESP-style tunnel encapsulation — extended, as in the
// BBN system, with a one-time-pad cipher suite whose pad material is
// drawn from quantum-distilled key.
//
// The packet model is a deliberately small IPv4-like header (the NetBSD
// kernel plumbing of the original is out of scope; the protocol
// behaviours — policy matching, SA lifetimes and rollover, anti-replay,
// the OTP extension — are what the paper's experiments exercise).
package ipsec

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// IP protocol numbers used by the VPN.
const (
	ProtoAny  uint8 = 0
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
	ProtoESP  uint8 = 50
	ProtoPing uint8 = 1 // ICMP-ish test traffic
)

// Addr is a 4-byte network address.
type Addr [4]byte

// ParseAddr parses "a.b.c.d".
func ParseAddr(s string) (Addr, error) {
	var a Addr
	var vals [4]int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &vals[0], &vals[1], &vals[2], &vals[3])
	if err != nil || n != 4 {
		return a, fmt.Errorf("ipsec: bad address %q", s)
	}
	for i, v := range vals {
		if v < 0 || v > 255 {
			return a, fmt.Errorf("ipsec: bad address %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// MustAddr is ParseAddr for constants; it panics on error.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Packet is the minimal datagram the VPN carries.
type Packet struct {
	Src     Addr
	Dst     Addr
	Proto   uint8
	ID      uint32 // for tracing test traffic
	Payload []byte
}

// headerLen is the marshaled header size.
const headerLen = 16

// maxPayload is the largest payload whose total length fits the
// header's 16-bit length field.
const maxPayload = 1<<16 - 1 - headerLen

// Marshal serializes the packet. A payload too big for the header's
// 16-bit length field fails with an error wrapping ErrTooBig.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendMarshal(nil)
}

// AppendMarshal serializes the packet onto dst and returns the
// extended slice, so a reusable scratch buffer absorbs the per-packet
// make that Marshal would otherwise pay. A payload too big for the
// length field fails with an error wrapping ErrTooBig, and dst comes
// back unextended.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	if len(p.Payload) > maxPayload {
		return dst, fmt.Errorf("%w: %d-byte payload, at most %d", ErrTooBig, len(p.Payload), maxPayload)
	}
	start := len(dst)
	dst = appendZeros(dst, headerLen+len(p.Payload))
	out := dst[start:]
	out[0] = 4 // version
	out[1] = p.Proto
	binary.BigEndian.PutUint16(out[2:], uint16(headerLen+len(p.Payload)))
	copy(out[4:8], p.Src[:])
	copy(out[8:12], p.Dst[:])
	binary.BigEndian.PutUint32(out[12:16], p.ID)
	copy(out[headerLen:], p.Payload)
	return dst, nil
}

// UnmarshalPacket parses a serialized packet.
func UnmarshalPacket(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := unmarshalPacketInto(p, b, true); err != nil {
		return nil, err
	}
	return p, nil
}

// unmarshalPacketInto parses into an existing Packet. With copyPayload
// false the payload aliases b — the batched inbound path uses this to
// hand out decapsulated packets pointing into the batch arena instead
// of copying every payload.
func unmarshalPacketInto(p *Packet, b []byte, copyPayload bool) error {
	if len(b) < headerLen {
		return fmt.Errorf("ipsec: packet too short (%d bytes)", len(b))
	}
	if b[0] != 4 {
		return fmt.Errorf("ipsec: bad version %d", b[0])
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total != len(b) {
		return fmt.Errorf("ipsec: length field %d, packet %d bytes", total, len(b))
	}
	p.Proto = b[1]
	p.ID = binary.BigEndian.Uint32(b[12:16])
	copy(p.Src[:], b[4:8])
	copy(p.Dst[:], b[8:12])
	if copyPayload {
		p.Payload = append([]byte(nil), b[headerLen:]...)
	} else {
		p.Payload = b[headerLen:]
	}
	return nil
}

// Prefix is an address prefix for selector matching.
type Prefix struct {
	Addr Addr
	Bits int // 0..32
}

// ParsePrefix parses "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) {
	var a, b, c, d, n int
	cnt, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &n)
	if err != nil || cnt != 5 || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("ipsec: bad prefix %q", s)
	}
	addr, err := ParseAddr(fmt.Sprintf("%d.%d.%d.%d", a, b, c, d))
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Addr: addr, Bits: n}, nil
}

// MustPrefix is ParsePrefix for constants; it panics on error.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr Addr) bool {
	bits := p.Bits
	for i := 0; i < 4 && bits > 0; i++ {
		take := bits
		if take > 8 {
			take = 8
		}
		mask := byte(0xFF << (8 - take))
		if p.Addr[i]&mask != addr[i]&mask {
			return false
		}
		bits -= take
	}
	return true
}

func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// Selector matches traffic for a policy entry.
type Selector struct {
	Src   Prefix
	Dst   Prefix
	Proto uint8 // ProtoAny matches everything
}

// Matches reports whether the packet falls under this selector.
func (s Selector) Matches(p *Packet) bool {
	if s.Proto != ProtoAny && s.Proto != p.Proto {
		return false
	}
	return s.Src.Contains(p.Src) && s.Dst.Contains(p.Dst)
}

// Action is what the SPD directs for matched traffic.
type Action int

const (
	// Bypass forwards in the clear.
	Bypass Action = iota
	// Discard drops the packet.
	Discard
	// Protect tunnels the packet under the policy's SA.
	Protect
)

func (a Action) String() string {
	switch a {
	case Bypass:
		return "bypass"
	case Discard:
		return "discard"
	case Protect:
		return "protect"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Policy is one SPD entry: a selector, an action, and — for Protect —
// the SA parameters IKE should negotiate, including whether this tunnel
// uses conventional ciphers with QKD reseeding or pure one-time pad
// ("Some may use conventional cryptography (e.g. AES), while others
// employ one-time pads, depending on how sensitive traffic is within a
// given VPN").
type Policy struct {
	Name    string
	Sel     Selector
	Action  Action
	Suite   CipherSuite
	PeerGW  Addr     // tunnel endpoint
	Life    Lifetime // per-SA lifetime (drives key rollover)
	OTPBits int      // pad bits per SA for SuiteOTP
}

// SPD is the ordered Security Policy Database; first match wins.
//
// Lookup runs against a tuple-space index (one hash map per distinct
// selector shape — src/dst prefix lengths plus protocol) built lazily
// on first Match and invalidated by Add, so a fabric-scale gateway
// with 100k+ policies matches in O(shapes) instead of scanning the
// whole ordered list per packet.
type SPD struct {
	entries []*Policy
	idx     atomic.Pointer[spdIndex]
}

// spdShape is one distinct selector shape's exact-match table: mask
// the packet's addresses to the shape's prefix lengths and look the
// pair up. Among shapes, the lowest-index (earliest) policy wins,
// preserving the ordered-list first-match semantics exactly.
type spdShape struct {
	srcBits, dstBits int
	proto            uint8
	byKey            map[spdKey]spdHit
}

type spdKey struct {
	src, dst Addr
}

type spdHit struct {
	pol   *Policy
	order int
}

type spdIndex struct {
	shapes []*spdShape
	byName map[string]*Policy
}

// maskAddr zeroes the host bits of a below a prefix length.
func maskAddr(a Addr, bits int) Addr {
	if bits >= 32 {
		return a
	}
	v := binary.BigEndian.Uint32(a[:])
	v &= ^uint32(0) << (32 - bits)
	var out Addr
	binary.BigEndian.PutUint32(out[:], v)
	return out
}

func buildSPDIndex(entries []*Policy) *spdIndex {
	idx := &spdIndex{byName: make(map[string]*Policy, len(entries))}
	find := func(srcBits, dstBits int, proto uint8) *spdShape {
		for _, sh := range idx.shapes {
			if sh.srcBits == srcBits && sh.dstBits == dstBits && sh.proto == proto {
				return sh
			}
		}
		sh := &spdShape{srcBits: srcBits, dstBits: dstBits, proto: proto,
			byKey: make(map[spdKey]spdHit)}
		idx.shapes = append(idx.shapes, sh)
		return sh
	}
	for i, e := range entries {
		sh := find(e.Sel.Src.Bits, e.Sel.Dst.Bits, e.Sel.Proto)
		k := spdKey{src: maskAddr(e.Sel.Src.Addr, sh.srcBits), dst: maskAddr(e.Sel.Dst.Addr, sh.dstBits)}
		if _, dup := sh.byKey[k]; !dup { // first entry per key wins, like the scan
			sh.byKey[k] = spdHit{pol: e, order: i}
		}
		if _, dup := idx.byName[e.Name]; !dup {
			idx.byName[e.Name] = e
		}
	}
	return idx
}

// NewSPD builds a policy database.
func NewSPD(policies ...*Policy) *SPD {
	return &SPD{entries: policies}
}

// Add appends a policy (and invalidates the lookup index).
func (s *SPD) Add(p *Policy) {
	s.entries = append(s.entries, p)
	s.idx.Store(nil)
}

// Match returns the first policy covering the packet, or nil.
func (s *SPD) Match(p *Packet) *Policy {
	idx := s.idx.Load()
	if idx == nil {
		idx = buildSPDIndex(s.entries)
		s.idx.Store(idx)
	}
	var bestPol *Policy
	bestOrder := int(^uint(0) >> 1)
	for _, sh := range idx.shapes {
		if sh.proto != ProtoAny && sh.proto != p.Proto {
			continue
		}
		k := spdKey{src: maskAddr(p.Src, sh.srcBits), dst: maskAddr(p.Dst, sh.dstBits)}
		if hit, ok := sh.byKey[k]; ok && hit.order < bestOrder {
			bestPol, bestOrder = hit.pol, hit.order
		}
	}
	return bestPol
}

// ByName returns the first policy with the given name, or nil. Like
// Match, it runs against the lazily-built index, so IKE's per-tunnel
// policy resolution stays O(1) on a fabric-scale database.
func (s *SPD) ByName(name string) *Policy {
	idx := s.idx.Load()
	if idx == nil {
		idx = buildSPDIndex(s.entries)
		s.idx.Store(idx)
	}
	return idx.byName[name]
}

// Policies returns the entries in order.
func (s *SPD) Policies() []*Policy { return s.entries }
