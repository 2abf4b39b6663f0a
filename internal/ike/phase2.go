package ike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/ipsec"
	"qkd/internal/kms"
)

// phase2Proposal is the initiator's quick-mode offer.
type phase2Proposal struct {
	PolicyName    string // initiator-outbound policy
	ReversePolicy string // responder-outbound policy
	Suite         ipsec.CipherSuite
	LifeSeconds   uint32
	LifeBytes     uint64
	Qblocks       uint32 // conventional suites: QKD blocks in KEYMAT
	OTPBits       uint64 // OTP suite: pad bits per direction
	SPI           uint32 // initiator's inbound SPI
	Nonce         [16]byte

	// The KDS ticket: the (stream, sequence) key block the initiator
	// allocated for this negotiation. The stream is implied by the
	// suite; both ends claim the identical ledger range.
	TicketSeq  uint64
	TicketOff  uint64
	TicketBits uint32
}

func (p *phase2Proposal) encode() []byte {
	buf := make([]byte, 0, 64+len(p.PolicyName)+len(p.ReversePolicy))
	buf = appendString(buf, p.PolicyName)
	buf = appendString(buf, p.ReversePolicy)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Suite))
	buf = binary.BigEndian.AppendUint32(buf, p.LifeSeconds)
	buf = binary.BigEndian.AppendUint64(buf, p.LifeBytes)
	buf = binary.BigEndian.AppendUint32(buf, p.Qblocks)
	buf = binary.BigEndian.AppendUint64(buf, p.OTPBits)
	buf = binary.BigEndian.AppendUint32(buf, p.SPI)
	buf = append(buf, p.Nonce[:]...)
	buf = binary.BigEndian.AppendUint64(buf, p.TicketSeq)
	buf = binary.BigEndian.AppendUint64(buf, p.TicketOff)
	buf = binary.BigEndian.AppendUint32(buf, p.TicketBits)
	return buf
}

func decodeProposal(b []byte) (*phase2Proposal, error) {
	p := &phase2Proposal{}
	var err error
	if p.PolicyName, b, err = takeString(b); err != nil {
		return nil, err
	}
	if p.ReversePolicy, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) != 4+4+8+4+8+4+16+8+8+4 {
		return nil, fmt.Errorf("ike: bad proposal length %d", len(b))
	}
	p.Suite = ipsec.CipherSuite(binary.BigEndian.Uint32(b))
	p.LifeSeconds = binary.BigEndian.Uint32(b[4:])
	p.LifeBytes = binary.BigEndian.Uint64(b[8:])
	p.Qblocks = binary.BigEndian.Uint32(b[16:])
	p.OTPBits = binary.BigEndian.Uint64(b[20:])
	p.SPI = binary.BigEndian.Uint32(b[28:])
	copy(p.Nonce[:], b[32:48])
	p.TicketSeq = binary.BigEndian.Uint64(b[48:])
	p.TicketOff = binary.BigEndian.Uint64(b[56:])
	p.TicketBits = binary.BigEndian.Uint32(b[64:])
	return p, nil
}

// encodeBatch appends a batched quick-mode request body to buf: a
// 16-bit proposal count, then each proposal behind its 16-bit length.
func encodeBatch(buf []byte, props []*phase2Proposal) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(props)))
	for _, p := range props {
		enc := p.encode()
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(enc)))
		buf = append(buf, enc...)
	}
	return buf
}

// decodeBatch parses a body encodeBatch wrote. It rejects truncated
// proposals and trailing bytes, so every body it accepts re-encodes to
// the same bytes.
func decodeBatch(b []byte) ([]*phase2Proposal, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("ike: truncated batch count")
	}
	count := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	var props []*phase2Proposal
	for n := 0; n < count; n++ {
		if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
			return nil, fmt.Errorf("ike: truncated proposal %d of %d", n, count)
		}
		l := int(binary.BigEndian.Uint16(b))
		prop, err := decodeProposal(b[2 : 2+l])
		if err != nil {
			return nil, fmt.Errorf("proposal %d: %w", n, err)
		}
		props = append(props, prop)
		b = b[2+l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("ike: %d trailing bytes after %d proposals", len(b), count)
	}
	return props, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("ike: truncated string")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("ike: truncated string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// retryShedAlloc runs one key-allocation attempt via f, retrying
// ErrOverload sheds up to cfg.Phase2Retries times on a jittered
// exponential backoff — the shed IS the delivery service's congestion
// signal, so the retry waits it out rather than re-offering the same
// load immediately. Other errors (including timeouts) pass through
// untouched. Initiator-path only (runs under negMu, where d.rand is
// safe to draw jitter from).
func (d *Daemon) retryShedAlloc(f func() error) error {
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil || attempt >= d.cfg.Phase2Retries || !errors.Is(err, kms.ErrOverload) {
			return err
		}
		base := d.cfg.Phase2Backoff << attempt
		delay := base/2 + time.Duration(d.rand.Float64()*float64(base/2))
		d.mu.Lock()
		d.stats.Phase2Backoffs++
		d.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-d.stopped:
			return err
		}
	}
}

// allocSPI returns a fresh SPI.
func (d *Daemon) allocSPI() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSPI++
	return d.nextSPI
}

func (d *Daemon) allocMsgID() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextMsg++
	return d.nextMsg
}

func (d *Daemon) findPolicy(name string) *ipsec.Policy {
	return d.gw.SPD.ByName(name)
}

// ticketOf reconstructs the kms ticket a proposal carries.
func (d *Daemon) ticketOf(prop *phase2Proposal, st *kms.Stream) kms.Ticket {
	return kms.Ticket{
		Stream: st.Name(),
		Seq:    prop.TicketSeq,
		Offset: prop.TicketOff,
		Bits:   int(prop.TicketBits),
	}
}

// installSAs derives KEYMAT (or cuts pads) from the claimed ticket
// block and installs this side's SAs. Both ends slice the same prefix
// of the same ledger range, the initiator's outbound direction first.
//
// The initiator installs both directions. The responder installs its
// inbound SA and returns its outbound one, which it holds until the
// initiator commits (commitHeld).
func (d *Daemon) installSAs(prop *phase2Proposal, spiR uint32, nonceR [16]byte, isInitiator bool, ticketKey *bitarray.BitArray) (*ipsec.SA, error) {
	life := ipsec.Lifetime{
		Duration: time.Duration(prop.LifeSeconds) * time.Second,
		Bytes:    prop.LifeBytes,
	}
	seed := append(append([]byte(nil), prop.Nonce[:]...), nonceR[:]...)

	withdraw := func(n int) (*bitarray.BitArray, error) {
		if ticketKey.Len() < n {
			return nil, fmt.Errorf("ticket block of %d bits short of %d", ticketKey.Len(), n)
		}
		return ticketKey.Slice(0, n), nil
	}

	var saIR, saRI *ipsec.SA // initiator->responder keyed by spiR; reverse by prop.SPI
	if prop.Suite == ipsec.SuiteOTP {
		// Both directions' pads come from the one ticket, so a failed
		// negotiation burns them together on both ends.
		pads, err := withdraw(2 * int(prop.OTPBits))
		if err != nil {
			return nil, fmt.Errorf("withdrawing OTP pads: %w", err)
		}
		padIR := pads.Slice(0, int(prop.OTPBits))
		padRI := pads.Slice(int(prop.OTPBits), pads.Len())
		d.mu.Lock()
		d.stats.QbitsConsumed += 2 * prop.OTPBits
		d.mu.Unlock()
		if saIR, err = ipsec.NewOTPSA(spiR, padIR.Bytes(), life); err != nil {
			return nil, err
		}
		if saRI, err = ipsec.NewOTPSA(prop.SPI, padRI.Bytes(), life); err != nil {
			return nil, err
		}
	} else {
		qbits, err := withdraw(int(prop.Qblocks) * QblockBits)
		if err != nil {
			return nil, fmt.Errorf("withdrawing %d Qblocks: %w", prop.Qblocks, err)
		}
		d.mu.Lock()
		skeyid := d.skeyid
		d.stats.QbitsConsumed += uint64(prop.Qblocks) * QblockBits
		d.mu.Unlock()
		// "we have included distilled QKD bits into the IKE Phase 2
		// hash, so that keys protecting IPsec SAs are derived from QKD."
		qseed := append(append([]byte(nil), qbits.Bytes()...), seed...)
		keyLen := prop.Suite.KeyBits() / 8
		kIR := expandKeymat(skeyid, append(qseed, spiBytes(spiR)...), keyLen)
		kRI := expandKeymat(skeyid, append(qseed, spiBytes(prop.SPI)...), keyLen)
		d.logf("INFO: oakley.c:473:oakley_compute_keymat_x(): KEYMAT using %d bytes QBITS",
			int(prop.Qblocks)*QblockBits/8)
		d.logf("INFO: oakley.c:473:oakley_compute_keymat_x(): KEYMAT using %d bytes QBITS",
			int(prop.Qblocks)*QblockBits/8)
		if saIR, err = ipsec.NewSA(spiR, prop.Suite, kIR, life); err != nil {
			return nil, err
		}
		if saRI, err = ipsec.NewSA(prop.SPI, prop.Suite, kRI, life); err != nil {
			return nil, err
		}
	}

	// Inbound SAs join the tunnel direction's rollover generation chain
	// (keyed by the peer's outbound policy) and are filed under the peer
	// gateway's SAD bucket: the superseded generation drains in-flight
	// traffic through its grace window and is then removed, so
	// renegotiation no longer leaks undead inbound SAs.
	peerGW := d.peerGateway(prop)
	var held *ipsec.SA
	if isInitiator {
		d.gw.SAD.InstallOutbound(prop.PolicyName, saIR)
		d.gw.SAD.InstallInboundFor(prop.ReversePolicy, peerGW, saRI)
	} else {
		d.gw.SAD.InstallInboundFor(prop.PolicyName, peerGW, saIR)
		held = saRI
	}
	d.mu.Lock()
	d.stats.SAsEstablished += 2
	d.mu.Unlock()
	peer := "peer"
	if peerGW != (ipsec.Addr{}) {
		peer = peerGW.String()
	}
	d.logf("INFO: pfkey.c:1107:pk_recvupdate(): IPsec-SA established: ESP/Tunnel %s->%s spi=%d(%#x)",
		d.gw.Local, peer, spiR, spiR)
	d.logf("INFO: pfkey.c:1319:pk_recvadd(): IPsec-SA established: ESP/Tunnel %s->%s spi=%d(%#x)",
		peer, d.gw.Local, prop.SPI, prop.SPI)
	return held, nil
}

// peerGateway derives the remote tunnel endpoint for a negotiation:
// of the proposal's two policies, the one whose PeerGW is not this
// gateway names the other end. Both ends resolve the same address,
// which keys the inbound SA's per-peer SAD bucket. The zero Addr
// (policy not found locally) falls back to the wildcard bucket.
func (d *Daemon) peerGateway(prop *phase2Proposal) ipsec.Addr {
	for _, name := range []string{prop.PolicyName, prop.ReversePolicy} {
		if p := d.findPolicy(name); p != nil && p.PeerGW != d.gw.Local {
			return p.PeerGW
		}
	}
	return ipsec.Addr{}
}

func spiBytes(spi uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, spi)
	return b
}
