// Package channel provides the "public channel" of Fig. 1: the
// classical, insecure, reliable message transport over which all QKD
// protocol traffic (sifting, error correction, privacy amplification,
// authentication) and key-agreement traffic (IKE) flows.
//
// Everything on this channel is assumed readable, forgeable and
// blockable by Eve (Section 6), which is why the protocol suite
// authenticates it with Wegman-Carter MACs (package auth) rather than
// trusting it.
//
// Two transports are provided: an in-memory pair for simulations and
// tests, and a TCP transport (length-prefixed frames over net.Conn) so
// the full stack can run between real processes. A MITM shim lets tests
// interpose an active attacker on either transport.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxMessage bounds a single message payload; oversized frames are
// rejected rather than allocated, so a malicious peer cannot force
// unbounded memory use.
const MaxMessage = 16 << 20

// Common errors.
var (
	ErrClosed  = errors.New("channel: connection closed")
	ErrTimeout = errors.New("channel: receive timeout")
	ErrTooBig  = fmt.Errorf("channel: message exceeds %d bytes", MaxMessage)
)

// Message is one framed unit on the public channel. Type is a small
// protocol-assigned discriminator (sift, parity, amplify, IKE, ...).
type Message struct {
	Type    uint8
	Payload []byte
}

// Conn is a reliable, ordered, message-oriented duplex connection.
// Implementations must allow one concurrent sender and one concurrent
// receiver.
type Conn interface {
	// Send transmits one message.
	Send(msgType uint8, payload []byte) error
	// Recv blocks for the next message.
	Recv() (Message, error)
	// RecvTimeout blocks up to d for the next message, returning
	// ErrTimeout if none arrives. A non-positive d means block forever.
	RecvTimeout(d time.Duration) (Message, error)
	// Close tears the connection down; blocked receivers return ErrClosed.
	Close() error
	// Stats returns cumulative traffic counters.
	Stats() Stats
}

// Stats counts traffic through one side of a connection. The sifting
// experiments use these to measure the benefit of run-length encoding.
type Stats struct {
	MsgsSent      uint64
	MsgsReceived  uint64
	BytesSent     uint64
	BytesReceived uint64
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

type memConn struct {
	out chan<- Message
	in  <-chan Message

	mu     sync.Mutex
	stats  Stats
	closed chan struct{}
	once   sync.Once
	peer   *memConn
}

// MemPair returns two connected in-memory Conns with the given channel
// buffer depth (0 means synchronous handoff).
func MemPair(buffer int) (Conn, Conn) {
	ab := make(chan Message, buffer)
	ba := make(chan Message, buffer)
	a := &memConn{out: ab, in: ba, closed: make(chan struct{})}
	b := &memConn{out: ba, in: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *memConn) Send(msgType uint8, payload []byte) error {
	if len(payload) > MaxMessage {
		return ErrTooBig
	}
	// Copy so the sender may reuse its buffer.
	p := make([]byte, len(payload))
	copy(p, payload)
	m := Message{Type: msgType, Payload: p}
	// Check for closure first: a select alone could randomly prefer the
	// buffered send even when the connection is already closed.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	default:
	}
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer.closed:
		return ErrClosed
	case c.out <- m:
	}
	c.mu.Lock()
	c.stats.MsgsSent++
	c.stats.BytesSent += uint64(len(payload)) + 5
	c.mu.Unlock()
	return nil
}

func (c *memConn) Recv() (Message, error) { return c.RecvTimeout(0) }

func (c *memConn) RecvTimeout(d time.Duration) (Message, error) {
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-c.in:
		c.mu.Lock()
		c.stats.MsgsReceived++
		c.stats.BytesReceived += uint64(len(m.Payload)) + 5
		c.mu.Unlock()
		return m, nil
	case <-timeout:
		return Message{}, ErrTimeout
	case <-c.closed:
		return Message{}, ErrClosed
	case <-c.peer.closed:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			c.mu.Lock()
			c.stats.MsgsReceived++
			c.stats.BytesReceived += uint64(len(m.Payload)) + 5
			c.mu.Unlock()
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *memConn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

// netConn frames messages over a stream as:
//
//	1 byte type | 4 bytes big-endian payload length | payload
type netConn struct {
	c  net.Conn
	mu sync.Mutex // serializes writers

	rmu   sync.Mutex // serializes readers
	stats Stats
	smu   sync.Mutex
}

// WrapNet adapts a net.Conn (TCP, Unix socket, net.Pipe) into a Conn.
func WrapNet(c net.Conn) Conn { return &netConn{c: c} }

// Dial connects to a listening peer at addr.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("channel: dial %s: %w", addr, err)
	}
	return WrapNet(c), nil
}

func (n *netConn) Send(msgType uint8, payload []byte) error {
	if len(payload) > MaxMessage {
		return ErrTooBig
	}
	hdr := make([]byte, 5)
	hdr[0] = msgType
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, err := n.c.Write(hdr); err != nil {
		return fmt.Errorf("channel: write header: %w", err)
	}
	if _, err := n.c.Write(payload); err != nil {
		return fmt.Errorf("channel: write payload: %w", err)
	}
	n.smu.Lock()
	n.stats.MsgsSent++
	n.stats.BytesSent += uint64(len(payload)) + 5
	n.smu.Unlock()
	return nil
}

func (n *netConn) Recv() (Message, error) { return n.RecvTimeout(0) }

func (n *netConn) RecvTimeout(d time.Duration) (Message, error) {
	n.rmu.Lock()
	defer n.rmu.Unlock()
	if d > 0 {
		n.c.SetReadDeadline(time.Now().Add(d))
		defer n.c.SetReadDeadline(time.Time{})
	}
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(n.c, hdr); err != nil {
		return Message{}, mapNetErr(err)
	}
	length := binary.BigEndian.Uint32(hdr[1:])
	if length > MaxMessage {
		return Message{}, ErrTooBig
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(n.c, payload); err != nil {
		return Message{}, mapNetErr(err)
	}
	n.smu.Lock()
	n.stats.MsgsReceived++
	n.stats.BytesReceived += uint64(length) + 5
	n.smu.Unlock()
	return Message{Type: hdr[0], Payload: payload}, nil
}

func mapNetErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (n *netConn) Close() error { return n.c.Close() }

func (n *netConn) Stats() Stats {
	n.smu.Lock()
	defer n.smu.Unlock()
	return n.stats
}

// ---------------------------------------------------------------------
// Man-in-the-middle shim
// ---------------------------------------------------------------------

// Direction labels which way a message is traveling through a MITM.
type Direction int

const (
	// AliceToBob flows from the first endpoint to the second.
	AliceToBob Direction = iota
	// BobToAlice flows from the second endpoint to the first.
	BobToAlice
)

func (d Direction) String() string {
	if d == AliceToBob {
		return "alice->bob"
	}
	return "bob->alice"
}

// MITMHook inspects and optionally rewrites a message in flight.
// Returning drop=true discards the message (Eve blocking traffic);
// otherwise the returned message is forwarded (possibly modified:
// Eve forging traffic).
type MITMHook func(dir Direction, m Message) (out Message, drop bool)

// MITM interposes an active attacker between two endpoints. Endpoint
// connections are returned; the attacker's hook sees every message.
//
//	aliceEnd, bobEnd := channel.NewMITM(hook)
//
// A nil hook forwards faithfully (a passive wiretap — Eve can always
// read the public channel).
func NewMITM(hook MITMHook) (Conn, Conn) {
	aliceSide, aliceInner := MemPair(64) // alice <-> eve
	bobSide, bobInner := MemPair(64)     // bob   <-> eve
	forward := func(from, to Conn, dir Direction) {
		for {
			m, err := from.Recv()
			if err != nil {
				to.Close()
				return
			}
			if hook != nil {
				var drop bool
				m, drop = hook(dir, m)
				if drop {
					continue
				}
			}
			if err := to.Send(m.Type, m.Payload); err != nil {
				return
			}
		}
	}
	go forward(aliceInner, bobInner, AliceToBob)
	go forward(bobInner, aliceInner, BobToAlice)
	return aliceSide, bobSide
}
