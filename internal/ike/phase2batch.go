package ike

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"qkd/internal/bitarray"
	"qkd/internal/ipsec"
	"qkd/internal/keypool"
	"qkd/internal/kms"
)

// BatchItem is one tunnel's entry in a batched quick-mode exchange.
type BatchItem struct {
	// Policy is the initiator-outbound policy to key.
	Policy *ipsec.Policy
	// ReversePolicy names the responder's outbound policy for the same
	// tunnel.
	ReversePolicy string
}

// maxBatchItems bounds one batch exchange (the wire count field is 16
// bits).
const maxBatchItems = 1<<16 - 1

// Negotiate runs quick mode for one tunnel, installing SAs in both
// gateways' databases: a batch of one. reversePolicy names the peer's
// outbound policy for the same tunnel (traffic flowing back); the
// responder installs its outbound SA under that name. Only the
// Initiator daemon may call it.
func (d *Daemon) Negotiate(pol *ipsec.Policy, reversePolicy string) error {
	errs, err := d.NegotiateBatch([]BatchItem{{pol, reversePolicy}})
	if err != nil {
		return err
	}
	return errs[0]
}

// NegotiateBatch runs quick mode for many tunnels in ONE authenticated
// exchange, the rekey-storm amortization: a single message round
// carries every proposal, and all key blocks drawn from the same
// delivery stream are allocated under the QoS scheduler with ONE
// ledger ticket for the whole burst, sliced into per-tunnel
// block-aligned sub-ranges that both ends claim identically. Compared
// to one exchange per tunnel, a fabric-wide expiry storm costs one
// scheduler pass and one round trip instead of thousands.
//
// The returned slice has one error per item (nil on success); the
// second return is a batch-level failure (nothing was negotiated).
// Only the Initiator daemon may call it.
func (d *Daemon) NegotiateBatch(items []BatchItem) ([]error, error) {
	if d.role != Initiator {
		return nil, fmt.Errorf("ike: only the initiator daemon negotiates")
	}
	if len(items) == 0 {
		return nil, nil
	}
	if len(items) > maxBatchItems {
		return nil, fmt.Errorf("ike: batch of %d exceeds %d items", len(items), maxBatchItems)
	}
	//lint:lockorder negMu deliberately serializes phase-2 exchanges end to end, batch allocation and response wait included; it is a protocol turnstile, not a data lock, and nothing acquires it from under another lock
	d.negMu.Lock()
	defer d.negMu.Unlock()
	d.mu.Lock()
	ready := d.skeyid != nil
	d.mu.Unlock()
	if !ready {
		return nil, ErrNotReady
	}

	errs := make([]error, len(items))
	props := make([]*phase2Proposal, len(items))
	for i, it := range items {
		pol := it.Policy
		prop := &phase2Proposal{
			PolicyName:    pol.Name,
			ReversePolicy: it.ReversePolicy,
			Suite:         pol.Suite,
			LifeSeconds:   uint32(pol.Life.Duration / time.Second),
			LifeBytes:     pol.Life.Bytes,
			SPI:           d.allocSPI(),
		}
		d.rand.Bytes(prop.Nonce[:])
		if pol.Suite == ipsec.SuiteOTP {
			bits := pol.OTPBits
			if bits == 0 {
				bits = 8 * 1024 * 8
			}
			prop.OTPBits = uint64(bits)
		} else {
			prop.Qblocks = uint32(d.cfg.Qblocks)
		}
		props[i] = prop
	}

	// Group the burst's key demand by delivery stream and allocate each
	// stream's total in one scheduler pass; the parent grant is then
	// sliced into block-aligned sub-tickets (one per tunnel) that ride
	// in the proposals. Items without a stream fall back to lockstep
	// pool withdrawal in wire order.
	keys := make([]*bitarray.BitArray, len(items))
	type group struct {
		st     *kms.Stream
		idx    []int
		blocks []int
		total  int
	}
	var groups []*group
	byStream := make(map[*kms.Stream]*group)
	for i, it := range items {
		st := d.streamFor(it.Policy.Suite)
		if st == nil {
			continue
		}
		needed := int(props[i].Qblocks) * QblockBits
		if it.Policy.Suite == ipsec.SuiteOTP {
			needed = 2 * int(props[i].OTPBits)
		}
		blocks := (needed + st.BlockBits() - 1) / st.BlockBits()
		g := byStream[st]
		if g == nil {
			g = &group{st: st}
			byStream[st] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
		g.blocks = append(g.blocks, blocks)
		g.total += blocks
	}
	for _, g := range groups {
		var parent kms.Ticket
		err := d.retryShedAlloc(func() error {
			var aerr error
			parent, aerr = g.st.AllocateWait(g.total, d.cfg.Phase2Timeout, nil)
			d.mu.Lock()
			d.stats.TicketAllocs++
			d.mu.Unlock()
			return aerr
		})
		if err != nil {
			if errors.Is(err, keypool.ErrTimeout) {
				err = ErrTimeout
			}
			for _, i := range g.idx {
				errs[i] = fmt.Errorf("ike: allocating batch key block: %w", err)
			}
			d.mu.Lock()
			d.stats.Phase2Failed += uint64(len(g.idx))
			d.mu.Unlock()
			continue
		}
		b0 := 0
		for k, i := range g.idx {
			sub := kms.Ticket{
				Stream: g.st.Name(),
				Seq:    parent.Seq + uint64(b0),
				Offset: parent.Offset + uint64(b0*g.st.BlockBits()),
				Bits:   g.blocks[k] * g.st.BlockBits(),
			}
			b0 += g.blocks[k]
			key, err := g.st.Claim(sub, d.cfg.Phase2Timeout, nil)
			if err != nil {
				g.st.Release(sub)
				errs[i] = fmt.Errorf("ike: claiming batch sub-ticket: %w", err)
				d.mu.Lock()
				d.stats.Phase2Failed++
				d.mu.Unlock()
				continue
			}
			keys[i] = key
			props[i].HasTicket = true
			props[i].TicketSeq = sub.Seq
			props[i].TicketOff = sub.Offset
			props[i].TicketBits = uint32(sub.Bits)
		}
	}

	// Items whose allocation failed stay out of the wire batch.
	var wire []int
	var sent []*phase2Proposal
	for i := range items {
		if errs[i] == nil {
			wire = append(wire, i)
			sent = append(sent, props[i])
		}
	}
	if len(wire) == 0 {
		return errs, nil
	}

	msgID := d.allocMsgID()
	// perfbench reads this line and the pk_recvupdate one from site A's
	// log: one begin per exchange, after its key is allocated, and one
	// install per tunnel.
	d.logf("INFO: isakmp.c:939:isakmp_ph2begin_i(): initiate new phase 2 negotiation: %s[0]<=>%s[0] (%d tunnels)",
		d.gw.Local, items[wire[0]].Policy.PeerGW, len(wire))
	d.mu.Lock()
	d.stats.Phase2Initiated += uint64(len(wire))
	d.stats.Phase2Batches++
	d.mu.Unlock()
	// failAll fails every item on the wire.
	failAll := func() {
		d.mu.Lock()
		d.stats.Phase2Failed += uint64(len(wire))
		d.mu.Unlock()
	}

	body := make([]byte, 5, 7+len(wire)*96)
	body[0] = kindPh2BatchReq
	binary.BigEndian.PutUint32(body[1:5], msgID)
	resp, err := d.roundTrip(msgID, encodeBatch(body, sent))
	switch {
	case errors.Is(err, ErrStopped):
		return nil, err
	case errors.Is(err, ErrTimeout):
		failAll()
		// Tell the responder the exchange is dead: a key withdrawal it
		// is still blocked on would otherwise eat key deposited for our
		// retry (the paper's IKE has no such notion; its
		// mismatched-pool failures simply persist until rekey).
		cancel := make([]byte, 5)
		cancel[0] = kindPh2Cancel
		binary.BigEndian.PutUint32(cancel[1:5], msgID)
		if err := d.sendAuthed(cancel); err != nil {
			d.logf("ERROR: isakmp.c:xxxx: batched phase 2 cancel failed: %v", err)
		}
		for _, i := range wire {
			errs[i] = ErrTimeout
		}
		return errs, nil
	case err != nil:
		failAll()
		return nil, err
	}

	// resp: kind(1) msgID(4) count(2) { ok(1) spiR(4) nonceR(16) }*
	const entryLen = 1 + 4 + 16
	if len(resp) < 7 || int(binary.BigEndian.Uint16(resp[5:7])) != len(wire) ||
		len(resp) != 7+len(wire)*entryLen {
		failAll()
		return nil, fmt.Errorf("ike: bad batched phase 2 response length %d", len(resp))
	}
	// live[k] is 1 where wire item k is installed on this side; the
	// commit carries it so the responder installs exactly those.
	live := make([]byte, len(wire))
	held := false
	for k, i := range wire {
		e := resp[7+k*entryLen:]
		if e[0] == 0 {
			errs[i] = ErrRejected
			d.mu.Lock()
			d.stats.Phase2Failed++
			d.mu.Unlock()
			continue
		}
		held = true
		spiR := binary.BigEndian.Uint32(e[1:5])
		var nonceR [16]byte
		copy(nonceR[:], e[5:21])
		if _, errs[i] = d.installSAs(props[i], spiR, nonceR, true, nil, keys[i]); errs[i] == nil {
			live[k] = 1
		}
	}
	if !held {
		return errs, nil
	}
	if err := d.commit(msgID, live); err != nil {
		for k, i := range wire {
			if live[k] == 1 {
				errs[i] = err
			}
		}
	}
	return errs, nil
}

// roundTrip sends body, the initiator's message msgID, and waits for
// the responder's answer to it. A failed send, a timeout or a stop
// forgets the exchange.
func (d *Daemon) roundTrip(msgID uint32, body []byte) ([]byte, error) {
	ch := make(chan []byte, 1)
	d.mu.Lock()
	d.pending[msgID] = ch
	d.mu.Unlock()
	err := d.sendAuthed(body)
	if err != nil {
		err = fmt.Errorf("ike: phase 2 send: %w", err)
	} else {
		select {
		case resp := <-ch:
			return resp, nil
		case <-time.After(d.cfg.Phase2Timeout):
			err = ErrTimeout
		case <-d.stopped:
			err = ErrStopped
		}
	}
	d.mu.Lock()
	delete(d.pending, msgID)
	d.mu.Unlock()
	return nil, err
}

// heldOutbound is a responder exchange's outbound SAs, one slot per
// proposal (nil where the item failed), kept out of the SAD until the
// initiator commits.
type heldOutbound struct {
	msgID  uint32
	policy []string
	sa     []*ipsec.SA
}

// commit sends quick mode's third message, HASH(3), once this side's
// SAs are in place, and waits for the responder's CONNECTED notify
// (RFC 2408's commit bit). live has one flag per item on the wire. The
// responder holds its outbound SAs until then: sealing under one
// earlier races this side's inbound install, and a packet dropped here
// for an unknown SPI would open later, when Eve replays it, as one
// never seen. A failed commit fails every live item.
func (d *Daemon) commit(msgID uint32, live []byte) error {
	body := make([]byte, 7, 7+len(live))
	body[0] = kindPh2Commit
	binary.BigEndian.PutUint32(body[1:5], msgID)
	binary.BigEndian.PutUint16(body[5:7], uint16(len(live)))
	resp, err := d.roundTrip(msgID, append(body, live...))
	if err == nil && (len(resp) != 6 || resp[5] != 1) {
		err = ErrRejected
	}
	if err != nil {
		d.mu.Lock()
		d.stats.Phase2Failed += uint64(bytes.Count(live, []byte{1}))
		d.mu.Unlock()
	}
	return err
}

// commitHeld serves the initiator's HASH(3): it installs the held
// outbound SAs the initiator reports live on its side and answers
// CONNECTED. A commit for any exchange but the held one, or with the
// wrong item count, is refused.
func (d *Daemon) commitHeld(msgID uint32, payload []byte) {
	d.mu.Lock()
	h := d.held
	ok := h != nil && h.msgID == msgID && len(payload) == 2+len(h.sa) &&
		int(binary.BigEndian.Uint16(payload)) == len(h.sa)
	if ok {
		d.held = nil
	}
	d.mu.Unlock()
	resp := make([]byte, 6)
	resp[0] = kindPh2Connected
	binary.BigEndian.PutUint32(resp[1:5], msgID)
	if ok {
		resp[5] = 1
		for k, sa := range h.sa {
			if sa != nil && payload[2+k] == 1 {
				d.gw.SAD.InstallOutbound(h.policy[k], sa)
			}
		}
	}
	if err := d.sendAuthed(resp); err != nil {
		d.logf("ERROR: isakmp.c:xxxx: phase 2 CONNECTED notify failed: %v", err)
	}
}

// handlePhase2Batch serves one inbound batched quick-mode request:
// per-item policy checks, ticket claims, and SA installs, answered in
// one authenticated reply. A failed item occupies its reply slot with
// ok=0 (and releases its ledger range) without sinking the rest of the
// burst; a batch abandoned by the initiator releases every remaining
// range and stays silent.
func (d *Daemon) handlePhase2Batch(msgID uint32, payload []byte, cancel <-chan struct{}) {
	props, err := decodeBatch(payload)
	if err != nil {
		d.logf("ERROR: isakmp.c:xxxx: malformed batched phase 2 request: %v", err)
		return
	}
	d.mu.Lock()
	d.stats.Phase2Responded += uint64(len(props))
	d.stats.Phase2Batches++
	d.mu.Unlock()
	d.logf("INFO: isakmp.c:1046:isakmp_ph2begin_r(): respond batched phase 2 negotiation: %d tunnels", len(props))

	releaseTicket := func(prop *phase2Proposal) {
		if prop.HasTicket {
			if st := d.streamFor(prop.Suite); st != nil {
				st.Release(d.ticketOf(prop, st))
			}
		}
	}

	const entryLen = 1 + 4 + 16
	resp := make([]byte, 7, 7+len(props)*entryLen)
	resp[0] = kindPh2BatchResp
	binary.BigEndian.PutUint32(resp[1:5], msgID)
	binary.BigEndian.PutUint16(resp[5:7], uint16(len(props)))
	held := &heldOutbound{msgID: msgID, policy: make([]string, len(props)), sa: make([]*ipsec.SA, len(props))}

	for n, prop := range props {
		// The initiator abandoned the batch: burn the remaining ledger
		// ranges so both ends' claim frontiers keep advancing, and send
		// nothing (its timeout already failed every item).
		select {
		case <-cancel:
			d.logf("INFO: isakmp.c:xxxx: batched phase 2 msgid %d abandoned at item %d", msgID, n)
			for _, rest := range props[n:] {
				releaseTicket(rest)
			}
			d.mu.Lock()
			d.stats.Phase2Failed += uint64(len(props) - n)
			d.mu.Unlock()
			return
		default:
		}

		fail := func(format string, args ...interface{}) {
			d.logf("ERROR: bbn-qkd-qpd.c:1101:qke_create_reply(): "+format, args...)
			releaseTicket(prop)
			d.mu.Lock()
			d.stats.Phase2Failed++
			d.mu.Unlock()
			resp = append(resp, make([]byte, entryLen)...)
		}

		rev := d.findPolicy(prop.ReversePolicy)
		if rev == nil {
			fail("batch item %d: unknown policy %q", n, prop.ReversePolicy)
			continue
		}
		// Per-item racoon lines match the single-negotiation transcript
		// (Fig. 12): batching changes the wire, not the log.
		d.logf("INFO: isakmp.c:1046:isakmp_ph2begin_r(): respond new phase 2 negotiation: %s[0]<=>%s[0]",
			d.gw.Local, rev.PeerGW)
		d.logf("INFO: proposal.c:1023:set_proposal_from_policy(): RESPONDER setting QPFS encmodesv 1")
		spiR := d.allocSPI()
		var nonceR [16]byte
		d.rand.Bytes(nonceR[:])

		var ticketKey *bitarray.BitArray
		if prop.HasTicket {
			st := d.streamFor(prop.Suite)
			if st == nil {
				fail("batch item %d: ticket offered but no delivery stream configured", n)
				continue
			}
			tk := d.ticketOf(prop, st)
			key, err := st.Claim(tk, d.cfg.Phase2Timeout, cancel)
			if err != nil {
				fail("batch item %d: claiming (%s, %d): %v", n, tk.Stream, tk.Seq, err)
				continue
			}
			ticketKey = key
		}
		out, err := d.installSAs(prop, spiR, nonceR, false, cancel, ticketKey)
		if err != nil {
			fail("batch item %d: %v", n, err)
			continue
		}
		held.policy[n], held.sa[n] = prop.ReversePolicy, out
		if prop.Suite == ipsec.SuiteOTP {
			d.logf("INFO: bbn-qkd-qpd.c:1047:qke_create_reply(): reply %d pad bits one-time-pad mode",
				prop.OTPBits)
		} else {
			d.logf("INFO: bbn-qkd-qpd.c:1047:qke_create_reply(): reply %d Qblocks %d bits %f entropy (offer is %d Qblocks)",
				prop.Qblocks, QblockBits, float64(prop.Qblocks*QblockBits), prop.Qblocks)
		}
		resp = append(resp, 1)
		resp = binary.BigEndian.AppendUint32(resp, spiR)
		resp = append(resp, nonceR[:]...)
	}
	// The initiator serializes its exchanges, so one slot suffices: a
	// newer exchange replaces whatever an abandoned one left behind.
	d.mu.Lock()
	d.held = held
	d.mu.Unlock()
	if err := d.sendAuthed(resp); err != nil {
		d.logf("ERROR: isakmp.c:xxxx: batched phase 2 reply failed: %v", err)
	}
}
