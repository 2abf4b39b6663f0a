// Package sifting implements the first stage of the QKD protocol
// pipeline: winnowing away the "failed qubits" — pulses that never
// arrived, gates where no detector (or both detectors) fired, and
// symbols where Bob measured in the wrong basis.
//
// The exchange is a single round trip per frame:
//
//  1. Bob -> Alice: a sift message listing, for each usable detection,
//     the pulse slot and the basis Bob selected. Slot numbers are
//     delta-coded with varints, which is the run-length encoding the
//     paper's appendix calls for: at ~1 % detection probability the
//     dominant content of a naive per-slot encoding would be runs of
//     "no detection".
//  2. Alice -> Bob: a sift response carrying one bit per reported
//     detection — keep (bases matched) or discard.
//
// After the transaction both sides hold identical-length sifted bit
// strings (identical up to quantum bit errors, which the next stage —
// error correction — repairs) and the list of pulse slots they came
// from.
//
// The comparison itself runs on packed bit columns: Bob's reported
// bases travel as a bit vector, Alice gathers her bases at the reported
// slots into another bit vector, and the keep mask is a word-at-a-time
// XNOR of the two; the sifted bits fall out of a packed compress
// (extract-by-mask) rather than per-detection branching.
package sifting

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"qkd/internal/bitarray"
	"qkd/internal/qframe"
)

// SiftMessage is Bob's report of which slots produced usable clicks and
// with which basis he measured each. Bases is a packed column parallel
// to Slots (bit i set means BasisDiag).
type SiftMessage struct {
	FrameID    uint64
	SlotsTotal int
	Slots      []uint32
	Bases      *bitarray.BitArray

	// values holds the bit each reported click registered, parallel to
	// Slots. BuildSift fills it so Bob's Apply need not re-derive the
	// columns from the frame; it never goes on the wire (Alice must not
	// learn Bob's bits) and decoded messages leave it nil.
	values *bitarray.BitArray
}

// AddDetection appends one reported detection (used by tests and
// hand-built messages; BuildSift is the bulk path).
func (m *SiftMessage) AddDetection(slot uint32, b qframe.Basis) {
	if m.Bases == nil {
		m.Bases = bitarray.New(0)
	}
	m.Slots = append(m.Slots, slot)
	m.Bases.Append(int(b))
}

// BuildSift constructs Bob's sift message from a received frame,
// dropping no-clicks and double-clicks.
func BuildSift(rx *qframe.RxFrame) *SiftMessage {
	slots, bases, values := rx.Usable()
	return &SiftMessage{
		FrameID:    rx.ID,
		SlotsTotal: rx.SlotsTotal,
		Slots:      slots,
		Bases:      bases,
		values:     values,
	}
}

// basesOrEmpty tolerates hand-built messages with a nil column.
func (m *SiftMessage) basesOrEmpty() *bitarray.BitArray {
	if m.Bases == nil {
		return bitarray.New(0)
	}
	return m.Bases
}

// Encode serializes the message with delta/varint slot compression and
// packed basis bits.
func (m *SiftMessage) Encode() []byte {
	buf := make([]byte, 0, 16+2*len(m.Slots))
	buf = binary.AppendUvarint(buf, m.FrameID)
	buf = binary.AppendUvarint(buf, uint64(m.SlotsTotal))
	buf = binary.AppendUvarint(buf, uint64(len(m.Slots)))
	prev := int64(-1)
	for _, s := range m.Slots {
		gap := int64(s) - prev // >= 1 for strictly increasing slots
		buf = binary.AppendUvarint(buf, uint64(gap))
		prev = int64(s)
	}
	return append(buf, m.basesOrEmpty().Bytes()...)
}

// EncodeNaive serializes without compression: 4 bytes of slot number
// plus 1 basis byte per detection. Kept as the baseline the RLE
// encoding is measured against.
func (m *SiftMessage) EncodeNaive() []byte {
	buf := make([]byte, 0, 16+5*len(m.Slots))
	buf = binary.AppendUvarint(buf, m.FrameID)
	buf = binary.AppendUvarint(buf, uint64(m.SlotsTotal))
	buf = binary.AppendUvarint(buf, uint64(len(m.Slots)))
	bases := m.basesOrEmpty()
	for i, s := range m.Slots {
		var rec [5]byte
		binary.BigEndian.PutUint32(rec[:4], s)
		rec[4] = byte(bases.Get(i))
		buf = append(buf, rec[:]...)
	}
	return buf
}

// DecodeSift parses an encoded sift message.
func DecodeSift(p []byte) (*SiftMessage, error) {
	m := &SiftMessage{}
	var off int
	var err error
	if m.FrameID, off, err = uvarint(p, 0); err != nil {
		return nil, fmt.Errorf("sifting: frame id: %w", err)
	}
	slotsTotal, off, err := uvarint(p, off)
	if err != nil {
		return nil, fmt.Errorf("sifting: slot count: %w", err)
	}
	if slotsTotal > 1<<32 {
		return nil, fmt.Errorf("sifting: implausible slot count %d", slotsTotal)
	}
	m.SlotsTotal = int(slotsTotal)
	count, off, err := uvarint(p, off)
	if err != nil {
		return nil, fmt.Errorf("sifting: detection count: %w", err)
	}
	if count > uint64(m.SlotsTotal) {
		return nil, fmt.Errorf("sifting: %d detections exceed %d slots", count, m.SlotsTotal)
	}
	// Every detection costs at least one gap byte, so a payload of
	// len(p) bytes cannot legitimately encode more detections than
	// that — reject before allocating attacker-chosen sizes.
	if count > uint64(len(p)) {
		return nil, fmt.Errorf("sifting: %d detections cannot fit in %d bytes", count, len(p))
	}
	m.Slots = make([]uint32, count)
	prev := int64(-1)
	for i := range m.Slots {
		gap, next, err := uvarint(p, off)
		if err != nil {
			return nil, fmt.Errorf("sifting: slot gap %d: %w", i, err)
		}
		off = next
		// Bound the gap before the signed add: a 2^64-1 gap would wrap
		// to a step backwards.
		if gap == 0 || gap > uint64(m.SlotsTotal) {
			return nil, fmt.Errorf("sifting: slot gap %d out of order or range", gap)
		}
		slot := prev + int64(gap)
		if slot >= int64(m.SlotsTotal) {
			return nil, fmt.Errorf("sifting: slot %d out of range", slot)
		}
		m.Slots[i] = uint32(slot)
		prev = slot
	}
	need := (int(count) + 7) / 8
	if len(p)-off < need {
		return nil, fmt.Errorf("sifting: basis bits truncated: have %d, need %d", len(p)-off, need)
	}
	m.Bases = bitarray.FromBytes(p[off : off+need])
	m.Bases.Truncate(int(count))
	return m, nil
}

// Response is Alice's verdict: bit i is 1 iff detection i of the sift
// message should be kept (Bob's basis matched Alice's).
type Response struct {
	FrameID uint64
	Keep    *bitarray.BitArray
}

// Encode serializes the response.
func (r *Response) Encode() []byte {
	buf := make([]byte, 0, 12+r.Keep.Len()/8)
	buf = binary.AppendUvarint(buf, r.FrameID)
	buf = binary.AppendUvarint(buf, uint64(r.Keep.Len()))
	return append(buf, r.Keep.Bytes()...)
}

// DecodeResponse parses an encoded response.
func DecodeResponse(p []byte) (*Response, error) {
	frameID, off, err := uvarint(p, 0)
	if err != nil {
		return nil, fmt.Errorf("sifting: response frame id: %w", err)
	}
	n, off, err := uvarint(p, off)
	if err != nil {
		return nil, fmt.Errorf("sifting: keep length: %w", err)
	}
	// Bound before casting: a 2^63-scale claim would overflow int and
	// turn the length check below into a negative-slice panic.
	if n > uint64(8*len(p)) {
		return nil, fmt.Errorf("sifting: %d keep bits cannot fit in %d bytes", n, len(p))
	}
	need := (int(n) + 7) / 8
	if len(p)-off < need {
		return nil, fmt.Errorf("sifting: keep bits truncated")
	}
	keep := bitarray.FromBytes(p[off : off+need])
	keep.Truncate(int(n))
	return &Response{FrameID: frameID, Keep: keep}, nil
}

// Result is one side's outcome of sifting a frame.
type Result struct {
	FrameID uint64
	// Bits are the sifted key bits, in slot order.
	Bits *bitarray.BitArray
	// Slots are the pulse slots each bit came from.
	Slots []uint32
}

// filterSlots returns the slots whose keep bit is set, walking the keep
// mask word-at-a-time.
func filterSlots(slots []uint32, keep *bitarray.BitArray) []uint32 {
	out := make([]uint32, 0, keep.OnesCount())
	for wi, w := range keep.Words() {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			out = append(out, slots[base+b])
		}
	}
	return out
}

// Respond runs Alice's side: compare Bob's reported bases against the
// transmitted frame and produce both the response message and Alice's
// own sifted result. The comparison is columnar: gather Alice's bases
// at the reported slots, XNOR against Bob's packed bases for the keep
// mask, and compress Alice's values by that mask for the sifted bits.
func Respond(tx *qframe.TxFrame, m *SiftMessage) (*Response, *Result, error) {
	if tx.ID != m.FrameID {
		return nil, nil, fmt.Errorf("sifting: frame mismatch: tx %d, sift %d", tx.ID, m.FrameID)
	}
	if m.SlotsTotal != tx.Len() {
		return nil, nil, fmt.Errorf("sifting: slot count mismatch: tx %d, sift %d",
			tx.Len(), m.SlotsTotal)
	}
	bases := m.basesOrEmpty()
	if bases.Len() != len(m.Slots) {
		return nil, nil, fmt.Errorf("sifting: %d slots but %d basis bits",
			len(m.Slots), bases.Len())
	}
	keep := tx.BasisColumn().SelectU32(m.Slots)
	keep.Xor(bases)
	keep.Not() // 1 where Alice's and Bob's bases agree
	res := &Result{
		FrameID: m.FrameID,
		Bits:    tx.ValueColumn().SelectU32(m.Slots).Compress(keep),
		Slots:   filterSlots(m.Slots, keep),
	}
	return &Response{FrameID: m.FrameID, Keep: keep}, res, nil
}

// Apply runs Bob's side: fold Alice's response into his detection
// record, producing his sifted result. m must be the sift message built
// from rx (Bob replays his own report to locate the kept bits).
func Apply(rx *qframe.RxFrame, m *SiftMessage, r *Response) (*Result, error) {
	if r.FrameID != m.FrameID {
		return nil, fmt.Errorf("sifting: response frame %d for sift %d", r.FrameID, m.FrameID)
	}
	if m.FrameID != rx.ID {
		return nil, fmt.Errorf("sifting: sift message frame %d for frame %d", m.FrameID, rx.ID)
	}
	if r.Keep.Len() != len(m.Slots) {
		return nil, fmt.Errorf("sifting: response keeps %d bits for %d detections",
			r.Keep.Len(), len(m.Slots))
	}
	values := m.values
	if values != nil {
		// BuildSift carried the values column along; just confirm the
		// message still matches the frame's click census.
		if n := rx.ClickCount(); n != len(m.Slots) {
			return nil, fmt.Errorf("sifting: sift message reports %d detections, frame has %d usable",
				len(m.Slots), n)
		}
	} else {
		// Hand-built or decoded message: re-derive the columns.
		slots, _, v := rx.Usable()
		if len(slots) != len(m.Slots) {
			return nil, fmt.Errorf("sifting: sift message reports %d detections, frame has %d usable",
				len(m.Slots), len(slots))
		}
		for i := range slots {
			if slots[i] != m.Slots[i] {
				return nil, fmt.Errorf("sifting: sift message slot %d does not match frame slot %d",
					m.Slots[i], slots[i])
			}
		}
		values = v
	}
	return &Result{
		FrameID: m.FrameID,
		Bits:    values.Compress(r.Keep),
		Slots:   filterSlots(m.Slots, r.Keep),
	}, nil
}

// uvarint reads a varint at p[off:], returning the value and new offset.
func uvarint(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad varint at offset %d", off)
	}
	return v, off + n, nil
}
