// Package auth implements the authentication stage of the QKD protocol
// suite: Wegman-Carter universal hashing, exactly the construction the
// original BB84 paper sketched and the BBN system adopts.
//
// Alice and Bob preposition a small shared secret key. Each message tag
// is h_k(m) XOR r, where h is drawn from an XOR-universal hash family
// (polynomial evaluation over GF(2^64), gf2.PolyHash) and r is a fresh
// 64-bit one-time pad consumed from the shared pool per message.
// Against an adversary with unlimited computing power the forgery
// probability per message is bounded by len(m)/2^64 + 2^-64 —
// information-theoretic, as the threat model of Section 6 demands.
//
// The pads cannot be reused ("the secret key bits cannot be re-used
// even once on different data without compromising the security"), so
// the pool drains with every message — and is replenished from freshly
// distilled QKD bits ("a complete authenticated conversation can
// validate a large number of new, shared secret bits from QKD, and a
// small number of these may be used to replenish the pool"). A forced
// drain of the pool is the denial-of-service attack Section 2 worries
// about; experiment E11 stages it.
package auth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"qkd/internal/channel"
	"qkd/internal/gf2"
	"qkd/internal/keypool"
)

// TagSize is the byte length of a message tag.
const TagSize = 8

// ErrForged is returned when a tag fails verification: either the
// message was tampered with in flight, or the two ends' pad streams
// have desynchronized.
var ErrForged = errors.New("auth: tag verification failed")

// MAC computes or verifies tags over one direction of a conversation.
// The sender holds a MAC and calls Tag; the receiver holds a mirror MAC
// (same pool contents, same order) and calls Verify. Both consume the
// shared pool identically, which is what keeps them in step.
//
// A MAC is not safe for concurrent use; each protocol direction owns
// one.
type MAC struct {
	hash *gf2.PolyHash
	pool keypool.Source
}

// NewMAC draws a 64-bit hash key from the pool and returns the MAC.
// Both ends must construct their MACs in the same order so they draw
// identical keys. The pool is any keypool.Source — a raw reservoir or
// a QoS-classed handle of the key delivery service (internal/kms).
func NewMAC(pool keypool.Source) (*MAC, error) {
	bits, err := pool.TryConsume(64)
	if err != nil {
		return nil, fmt.Errorf("auth: drawing hash key: %w", err)
	}
	return &MAC{hash: gf2.NewPolyHash(bits.Words()[0]), pool: pool}, nil
}

// Tag authenticates msg, consuming 64 bits of pad. It fails with the
// pool's error when the pad supply is exhausted.
func (m *MAC) Tag(msg []byte) ([TagSize]byte, error) {
	var tag [TagSize]byte
	pad, err := m.pool.TryConsume(64)
	if err != nil {
		return tag, fmt.Errorf("auth: consuming tag pad: %w", err)
	}
	binary.LittleEndian.PutUint64(tag[:], m.hash.Sum(msg)^pad.Words()[0])
	return tag, nil
}

// Verify checks msg against tag, consuming 64 bits of pad (the mirror
// of the sender's consumption). On pad exhaustion it returns the pool
// error; on mismatch, ErrForged.
//
// Note the pad is consumed even when verification fails: the sender
// spent it, and skipping it here would desynchronize every subsequent
// message. A failed message costs both sides one pad.
func (m *MAC) Verify(msg []byte, tag [TagSize]byte) error {
	pad, err := m.pool.TryConsume(64)
	if err != nil {
		return fmt.Errorf("auth: consuming verify pad: %w", err)
	}
	want := m.hash.Sum(msg) ^ pad.Words()[0]
	if binary.LittleEndian.Uint64(tag[:]) != want {
		return ErrForged
	}
	return nil
}

// PadBitsPerMessage is the pool cost of one authenticated message.
const PadBitsPerMessage = 64

// Conn authenticates a channel.Conn: every sent message carries a tag,
// every received message is verified before delivery. It is the piece
// that defends the entire QKD protocol suite (and, per Section 5, the
// VPN control traffic) against Eve's man-in-the-middle position on the
// public channel.
type Conn struct {
	inner channel.Conn
	send  *MAC
	recv  *MAC

	// Forgeries counts verification failures observed, the signal a
	// deployment would alarm on.
	Forgeries int
}

// Wrap authenticates conn. sendPool feeds tags on outgoing messages and
// recvPool verifies incoming ones; the peer must wrap its end with the
// two pools swapped. Each pool must hold at least 64 bits for the hash
// keys.
func Wrap(conn channel.Conn, sendPool, recvPool keypool.Source) (*Conn, error) {
	s, err := NewMAC(sendPool)
	if err != nil {
		return nil, err
	}
	r, err := NewMAC(recvPool)
	if err != nil {
		return nil, err
	}
	return &Conn{inner: conn, send: s, recv: r}, nil
}

// Send implements channel.Conn.
func (c *Conn) Send(msgType uint8, payload []byte) error {
	// Tag covers the type byte as well as the payload; re-typing a
	// message is as much a forgery as rewriting it.
	tagged := make([]byte, 1+len(payload))
	tagged[0] = msgType
	copy(tagged[1:], payload)
	tag, err := c.send.Tag(tagged)
	if err != nil {
		return err
	}
	return c.inner.Send(msgType, append(payload[:len(payload):len(payload)], tag[:]...))
}

// Recv implements channel.Conn.
func (c *Conn) Recv() (channel.Message, error) {
	return c.recvCommon(func() (channel.Message, error) { return c.inner.Recv() })
}

// RecvTimeout implements channel.Conn.
func (c *Conn) RecvTimeout(d time.Duration) (channel.Message, error) {
	return c.recvCommon(func() (channel.Message, error) { return c.inner.RecvTimeout(d) })
}

func (c *Conn) recvCommon(recv func() (channel.Message, error)) (channel.Message, error) {
	m, err := recv()
	if err != nil {
		return channel.Message{}, err
	}
	if len(m.Payload) < TagSize {
		// Too short to carry a tag, so there is nothing to verify. The
		// sender still spent a pad on it: spend ours as Verify would,
		// or every later message fails.
		if _, err := c.recv.pool.TryConsume(PadBitsPerMessage); err != nil {
			return channel.Message{}, fmt.Errorf("auth: consuming verify pad: %w", err)
		}
		c.Forgeries++
		return channel.Message{}, ErrForged
	}
	body := m.Payload[:len(m.Payload)-TagSize]
	var tag [TagSize]byte
	copy(tag[:], m.Payload[len(m.Payload)-TagSize:])
	tagged := make([]byte, 1+len(body))
	tagged[0] = m.Type
	copy(tagged[1:], body)
	if err := c.recv.Verify(tagged, tag); err != nil {
		if errors.Is(err, ErrForged) {
			c.Forgeries++
		}
		return channel.Message{}, err
	}
	return channel.Message{Type: m.Type, Payload: body}, nil
}

// Close implements channel.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// Stats implements channel.Conn.
func (c *Conn) Stats() channel.Stats { return c.inner.Stats() }
