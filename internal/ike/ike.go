// Package ike implements the key-agreement half of Section 7: an
// IKE-like daemon, modeled on the modified 'racoon' of the BBN system,
// that negotiates IPsec Security Associations whose keys are derived
// from quantum-distilled bits.
//
// The fidelity targets are the paper's extensions and the failure modes
// it calls out, not RFC 2409 bit-exactness:
//
//   - Phase 1 establishes an authenticated control channel from a
//     prepositioned shared secret (SKEYID = PRF(psk, Ni | Nr)); all
//     subsequent IKE traffic carries a PRF tag under it.
//   - Phase 2 ("quick mode") negotiates a pair of SAs per tunnel. The
//     QKD extension ("QPFS") has the initiator offer a number of
//     Qblocks — 1024-bit blocks of distilled key — which both ends
//     withdraw from their mirrored reservoirs and fold into the KEYMAT
//     PRF, reproducing the "KEYMAT using ... QBITS" path of Fig. 12.
//     One-time-pad tunnels instead withdraw whole pad blocks per
//     direction.
//   - Negotiations block (bounded by Phase2Timeout) while the reservoir
//     accumulates enough bits — the paper's observation that IKE's
//     default timeouts "may be too small for systems employing QKD",
//     and the lever for Eve's denial-of-service.
//   - There is deliberately NO detection of mismatched key pools: "IKE
//     has no mechanisms for noticing or dealing with such cases. The
//     result appears to be that all security associations that employ
//     key bits derived from this corrupted information will fail to
//     properly encrypt / decrypt traffic ... until the security
//     association is renewed." Experiment E8 reproduces exactly that.
package ike

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"qkd/internal/channel"
	"qkd/internal/hmacsha1"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/kms"
	"qkd/internal/rng"
)

// TIKE is the channel message type carrying IKE traffic.
const TIKE uint8 = 0x40

// QblockBits is the size of one negotiated QKD key block, matching the
// "1 Qblocks 1024 bits" of the paper's log extract.
const QblockBits = 1024

// Role distinguishes the link's designated negotiation initiator from
// the responder. Only the initiator originates Phase 2 exchanges; one
// negotiation installs SAs for both directions, so the responder never
// needs to originate (and mirrored key pools stay in lockstep).
type Role int

const (
	// Initiator originates Phase 1 and all Phase 2 negotiations.
	Initiator Role = iota
	// Responder answers them.
	Responder
)

func (r Role) String() string {
	if r == Initiator {
		return "initiator"
	}
	return "responder"
}

// Config tunes a daemon.
type Config struct {
	// Phase1Timeout bounds the initial exchange (default 30 s).
	Phase1Timeout time.Duration
	// Phase2Timeout bounds each quick-mode negotiation, including the
	// wait for the key reservoir to fill (default 10 s).
	Phase2Timeout time.Duration
	// Qblocks is the number of 1024-bit QKD blocks folded into each
	// conventional SA's KEYMAT (default 1).
	Qblocks int
	// Phase2Retries is how many times a key allocation the delivery
	// service shed (ErrOverload) is retried within one negotiation,
	// each attempt separated by a jittered exponential backoff starting
	// at Phase2Backoff (defaults: 2 retries, 25 ms). A shed is a
	// congestion signal, so the retry waits the overload out instead of
	// immediately re-offering the same load; timeouts are not retried —
	// the deadline already spent the caller's patience.
	Phase2Retries int
	Phase2Backoff time.Duration
	// Seed drives SPI and nonce generation.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Phase1Timeout == 0 {
		c.Phase1Timeout = 30 * time.Second
	}
	if c.Phase2Timeout == 0 {
		c.Phase2Timeout = 10 * time.Second
	}
	if c.Qblocks == 0 {
		c.Qblocks = 1
	}
	if c.Phase2Retries == 0 {
		c.Phase2Retries = 2
	}
	if c.Phase2Retries < 0 {
		c.Phase2Retries = 0
	}
	if c.Phase2Backoff <= 0 {
		c.Phase2Backoff = 25 * time.Millisecond
	}
	return c
}

// Errors.
var (
	ErrTimeout  = errors.New("ike: negotiation timed out")
	ErrAuth     = errors.New("ike: message authentication failed")
	ErrNotReady = errors.New("ike: phase 1 not established")
	ErrRejected = errors.New("ike: peer rejected negotiation")
	ErrStopped  = errors.New("ike: daemon stopped")
)

// message kinds inside TIKE payloads. Kinds 3, 4 and 5 (the
// single-proposal quick-mode request, response and nack) are retired
// and stay reserved: a single negotiation is a batch of one.
const (
	kindPh1Init      = 1
	kindPh1Resp      = 2
	kindDelete       = 6 // reserved: SA delete notification (wire space held)
	kindPh2Cancel    = 7 // initiator -> responder: abandon a pending exchange
	kindPh2BatchReq  = 8 // batched quick mode: many proposals, one exchange
	kindPh2BatchResp = 9
	kindPh2Commit    = 10 // initiator -> responder: HASH(3), its SAs are installed
	kindPh2Connected = 11 // responder -> initiator: CONNECTED, its outbound SAs are installed
)

// Daemon is one gateway's IKE process.
type Daemon struct {
	role Role
	conn channel.Conn
	gw   *ipsec.Gateway
	pool keypool.Source
	psk  []byte
	cfg  Config
	logw io.Writer

	// Key delivery streams (optional, via SetKeyStreams). When set,
	// quick mode withdraws key as (stream, sequence) tickets from the
	// key delivery service instead of relying on lockstep pool
	// withdrawal order: the initiator allocates a ticket under the QoS
	// scheduler, carries it in the proposal, and both ends claim the
	// identical ledger range.
	qbStream  *kms.Stream
	otpStream *kms.Stream

	rand *rng.SplitMix64

	mu     sync.Mutex
	skeyid []byte
	// skeyMAC is keyed with skeyid once and tags every control
	// message. It is used only under mu: the crypto/hmac fallback is
	// not safe for concurrent use.
	skeyMAC    hmacsha1.MAC
	nextSPI    uint32
	nextMsg    uint32
	pending    map[uint32]chan []byte
	respCancel map[uint32]chan struct{} // responder: live exchanges' abort channels
	held       *heldOutbound            // responder: outbound SAs awaiting the initiator's commit
	stopped    chan struct{}
	negMu      sync.Mutex // serializes Phase 2 negotiations (initiator)
	respMu     sync.Mutex // serializes Phase 2 responses (responder)

	stats Stats
}

// Stats counts daemon activity.
type Stats struct {
	Phase2Initiated uint64
	Phase2Responded uint64
	Phase2Failed    uint64
	SAsEstablished  uint64
	QbitsConsumed   uint64
	AuthFailures    uint64
	// Phase2Batches counts quick-mode exchanges, each covering one or
	// more tunnels (a single negotiation is a batch of one).
	// TicketAllocs counts every pass through the KDS QoS scheduler,
	// shed passes that are retried included. A coalescing rekeyer
	// keeps both far below the tunnel count during an expiry storm.
	Phase2Batches uint64
	TicketAllocs  uint64
	// Phase2Backoffs counts shed key allocations retried after a
	// jittered backoff instead of failing the negotiation outright.
	Phase2Backoffs uint64
}

// NewDaemon builds a daemon over the given control channel. pool is the
// gateway's distilled-key supply — a raw reservoir (mirrored with the
// peer's by the QKD layer) or a QoS handle of the key delivery service;
// psk is the prepositioned Phase 1 secret; logw (may be nil) receives
// racoon-style log lines.
func NewDaemon(role Role, conn channel.Conn, gw *ipsec.Gateway, pool keypool.Source, psk []byte, cfg Config, logw io.Writer) *Daemon {
	cfg = cfg.withDefaults()
	base := uint32(0x01000000)
	if role == Responder {
		base = 0x02000000
	}
	return &Daemon{
		role:       role,
		conn:       conn,
		gw:         gw,
		pool:       pool,
		psk:        append([]byte(nil), psk...),
		cfg:        cfg,
		logw:       logw,
		rand:       rng.NewSplitMix64(cfg.Seed ^ uint64(role+1)*0x9E3779B97F4A7C15),
		nextSPI:    base,
		pending:    make(map[uint32]chan []byte),
		respCancel: make(map[uint32]chan struct{}),
		stopped:    make(chan struct{}),
	}
}

// SetKeyStreams switches quick-mode key withdrawal to the key delivery
// service: conventional suites draw Qblocks from qblocks, one-time-pad
// suites draw pads from otp. Both daemons of a link must be configured
// with mirrored streams (same names and block sizes on their respective
// KDS instances). Call before Start.
func (d *Daemon) SetKeyStreams(qblocks, otp *kms.Stream) {
	d.qbStream = qblocks
	d.otpStream = otp
}

// streamFor maps a negotiated suite to its delivery stream (nil when
// the daemon runs in legacy lockstep-pool mode).
func (d *Daemon) streamFor(suite ipsec.CipherSuite) *kms.Stream {
	if suite == ipsec.SuiteOTP {
		return d.otpStream
	}
	return d.qbStream
}

// Stats returns a snapshot.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Daemon) logf(format string, args ...interface{}) {
	if d.logw == nil {
		return
	}
	fmt.Fprintf(d.logw, format+"\n", args...)
}

// prf is the IKE pseudorandom function (HMAC-SHA1).
func prf(key, data []byte) []byte {
	m := hmacsha1.New(key)
	out := new([hmacsha1.Size]byte)
	m.Sum(out, data)
	return out[:]
}

// expandKeymat derives n bytes: K1 = prf(key, seed|0x01),
// Ki = prf(key, K(i-1)|seed|i) — the oakley_compute_keymat_x shape.
// One MAC, keyed once, computes every block.
func expandKeymat(key, seed []byte, n int) []byte {
	m := hmacsha1.New(key)
	var out, msg []byte
	var k [hmacsha1.Size]byte
	for i := byte(1); len(out) < n; i++ {
		msg = append(append(msg, seed...), i) // K(i-1)|seed|i; K0 is empty
		m.Sum(&k, msg)
		out = append(out, k[:]...)
		msg = append(msg[:0], k[:]...)
	}
	return out[:n]
}

// Start performs Phase 1 and launches the receive loop. The initiator
// drives the exchange; the responder's Start blocks until Phase 1
// completes (or times out).
func (d *Daemon) Start() error {
	nonce := make([]byte, 16)
	d.rand.Bytes(nonce)

	if d.role == Initiator {
		d.logf("INFO: isakmp.c:840:isakmp_ph1begin_i(): initiate new phase 1 negotiation")
		body := append([]byte{kindPh1Init}, nonce...)
		if err := d.conn.Send(TIKE, body); err != nil {
			return fmt.Errorf("ike: phase 1 send: %w", err)
		}
		msg, err := d.conn.RecvTimeout(d.cfg.Phase1Timeout)
		if err != nil {
			return fmt.Errorf("ike: phase 1: %w", mapTimeout(err))
		}
		if msg.Type != TIKE || len(msg.Payload) != 17 || msg.Payload[0] != kindPh1Resp {
			return fmt.Errorf("ike: unexpected phase 1 response")
		}
		peerNonce := msg.Payload[1:]
		d.setSkeyid(nonce, peerNonce)
	} else {
		msg, err := d.conn.RecvTimeout(d.cfg.Phase1Timeout)
		if err != nil {
			return fmt.Errorf("ike: phase 1: %w", mapTimeout(err))
		}
		if msg.Type != TIKE || len(msg.Payload) != 17 || msg.Payload[0] != kindPh1Init {
			return fmt.Errorf("ike: unexpected phase 1 message")
		}
		d.logf("INFO: isakmp.c:908:isakmp_ph1begin_r(): respond new phase 1 negotiation")
		peerNonce := msg.Payload[1:]
		body := append([]byte{kindPh1Resp}, nonce...)
		if err := d.conn.Send(TIKE, body); err != nil {
			return fmt.Errorf("ike: phase 1 send: %w", err)
		}
		d.setSkeyid(peerNonce, nonce)
	}
	d.logf("INFO: isakmp.c:2458:isakmp_ph1established(): ISAKMP-SA established (prepositioned secret + PRF)")
	go d.run()
	return nil
}

func (d *Daemon) setSkeyid(ni, nr []byte) {
	skeyid := prf(d.psk, append(append([]byte(nil), ni...), nr...))
	m := hmacsha1.New(skeyid)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.skeyid, d.skeyMAC = skeyid, m
}

// Stop shuts the daemon down; in-flight negotiations fail, and any
// pending responder-side key withdrawals are canceled.
func (d *Daemon) Stop() {
	d.mu.Lock()
	select {
	case <-d.stopped:
	default:
		close(d.stopped)
	}
	for id, ch := range d.respCancel {
		delete(d.respCancel, id)
		close(ch)
	}
	d.mu.Unlock()
	d.conn.Close()
}

// mapTimeout converts channel timeouts into ErrTimeout.
func mapTimeout(err error) error {
	if errors.Is(err, channel.ErrTimeout) {
		return ErrTimeout
	}
	return err
}

// tag computes the control-traffic authenticator for a message body.
func (d *Daemon) tag(body []byte) []byte {
	var sum [hmacsha1.Size]byte
	d.mu.Lock()
	d.skeyMAC.Sum(&sum, body)
	d.mu.Unlock()
	return sum[:12]
}

// sendAuthed sends body with an SKEYID tag appended.
func (d *Daemon) sendAuthed(body []byte) error {
	return d.conn.Send(TIKE, append(body, d.tag(body)...))
}

// checkAuthed strips and verifies the tag.
func (d *Daemon) checkAuthed(payload []byte) ([]byte, error) {
	if len(payload) < 12 {
		return nil, ErrAuth
	}
	body := payload[:len(payload)-12]
	want := d.tag(body)
	if subtle.ConstantTimeCompare(want, payload[len(payload)-12:]) != 1 {
		d.mu.Lock()
		d.stats.AuthFailures++
		d.mu.Unlock()
		return nil, ErrAuth
	}
	return body, nil
}

// run dispatches inbound IKE traffic: requests are served, responses
// routed to their waiting negotiation.
func (d *Daemon) run() {
	for {
		msg, err := d.conn.Recv()
		if err != nil {
			return
		}
		if msg.Type != TIKE {
			continue // not ours; a shared channel may carry QKD traffic
		}
		body, err := d.checkAuthed(msg.Payload)
		if err != nil {
			d.logf("ERROR: isakmp.c:xxxx: message authentication failed, dropped")
			continue
		}
		if len(body) < 5 {
			continue
		}
		kind := body[0]
		msgID := binary.BigEndian.Uint32(body[1:5])
		switch kind {
		case kindPh2BatchReq:
			// Served off the receive loop so a blocking key withdrawal
			// cannot deafen the daemon to a cancel for that very
			// exchange; respMu keeps negotiations serialized (and the
			// mirrored reservoirs consumed in lockstep). The abort
			// channel is registered HERE, synchronously, before the
			// handler goroutine exists: the channel delivers messages in
			// order, so every cancel for this msgID is guaranteed to
			// find the registration even while the handler is still
			// queued behind an earlier blocked negotiation.
			cancel := make(chan struct{})
			d.mu.Lock()
			skip := false
			select {
			case <-d.stopped:
				skip = true
			default:
				// A msgID already registered means that exchange is
				// live (a replayed request, since the initiator never
				// reuses ids): serving it again would double-consume
				// key and clobber the live exchange's abort channel.
				if _, exists := d.respCancel[msgID]; exists {
					skip = true
				} else {
					d.respCancel[msgID] = cancel
				}
			}
			d.mu.Unlock()
			if skip {
				continue
			}
			payload := append([]byte(nil), body[5:]...)
			go func() {
				//lint:lockorder respMu serializes responder-side phase-2 handling across the blocking reservoir withdrawal by design (racoon handles one exchange at a time); the kindPh2Cancel path exists precisely to unblock it
				d.respMu.Lock()
				defer d.respMu.Unlock()
				defer func() {
					// Deregister only our own channel: a cancel may
					// have removed it already, and another exchange
					// could have registered this id since.
					d.mu.Lock()
					if d.respCancel[msgID] == cancel {
						delete(d.respCancel, msgID)
					}
					d.mu.Unlock()
				}()
				d.handlePhase2Batch(msgID, payload, cancel)
			}()
		case kindPh2Cancel:
			// The initiator abandoned the exchange (its timeout is
			// otherwise invisible here): release any withdrawal still
			// blocked on the reservoir — or still queued — so key
			// deposited afterwards feeds the retry, not the corpse. A
			// miss means the exchange already completed; nothing to do.
			d.mu.Lock()
			ch, ok := d.respCancel[msgID]
			if ok {
				delete(d.respCancel, msgID)
			}
			d.mu.Unlock()
			if ok {
				d.logf("INFO: isakmp.c:xxxx: peer abandoned phase 2 msgid %d, canceling pending withdrawal", msgID)
				close(ch)
			}
		case kindPh2Commit:
			d.commitHeld(msgID, body[5:])
		case kindPh2BatchResp, kindPh2Connected:
			d.mu.Lock()
			ch := d.pending[msgID]
			delete(d.pending, msgID)
			d.mu.Unlock()
			if ch != nil {
				ch <- body
			}
		}
	}
}
