package ipsec

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"qkd/internal/aesctr"
	"qkd/internal/gf2"
	"qkd/internal/hmacsha1"
)

// CipherSuite selects the transform protecting an SA's traffic.
type CipherSuite int

const (
	// SuiteAES128CTR protects with AES-128 in counter mode plus
	// HMAC-SHA1-96 integrity — the paper's "conventional symmetric
	// ciphers ... with continual and automatic reseeding by fresh QKD
	// bits" path.
	SuiteAES128CTR CipherSuite = iota
	// Suite3DESCBC is the 2003-era default VPN transform (Section 3
	// names 3DES/SHA1), kept for fidelity and comparison.
	Suite3DESCBC
	// SuiteOTP is the paper's one-time-pad extension: Vernam cipher
	// over QKD pad material with an information-theoretic
	// (Wegman-Carter) integrity tag.
	SuiteOTP
	// SuiteNull applies integrity but no confidentiality (testing).
	SuiteNull
)

func (c CipherSuite) String() string {
	switch c {
	case SuiteAES128CTR:
		return "aes128-ctr+hmac-sha1"
	case Suite3DESCBC:
		return "3des-cbc+hmac-sha1"
	case SuiteOTP:
		return "otp+wegman-carter"
	case SuiteNull:
		return "null+hmac-sha1"
	}
	return fmt.Sprintf("CipherSuite(%d)", int(c))
}

// KeyBits returns the secret material an SA of this suite consumes at
// establishment (encryption plus integrity key), excluding OTP pads.
func (c CipherSuite) KeyBits() int {
	switch c {
	case SuiteAES128CTR:
		return (16 + 20) * 8
	case Suite3DESCBC:
		return (24 + 20) * 8
	case SuiteOTP:
		return 64 // Wegman-Carter polynomial key
	case SuiteNull:
		return 20 * 8
	}
	return 0
}

// Lifetime bounds an SA's validity, "expressed either in time (seconds)
// or in data encrypted (kilobytes)" (Section 7). Zero fields mean
// unbounded.
type Lifetime struct {
	Duration time.Duration
	Bytes    uint64
}

// Errors from SA processing.
var (
	ErrReplay     = errors.New("ipsec: replayed or stale sequence number")
	ErrIntegrity  = errors.New("ipsec: integrity check failed")
	ErrExpired    = errors.New("ipsec: security association expired")
	ErrPadExhaust = errors.New("ipsec: one-time pad exhausted")
	ErrNoSA       = errors.New("ipsec: no security association for policy")
	ErrNoPolicy   = errors.New("ipsec: no policy matches packet")
	ErrDiscard    = errors.New("ipsec: policy discards packet")
	ErrUnknownSPI = errors.New("ipsec: unknown SPI")
	// ErrTooBig rejects an inner packet whose total length does not
	// fit the header's 16-bit length field. Packet.Marshal returns it,
	// so the gateway refuses the packet before sealing, and it spends
	// no sequence number, byte budget or pad.
	ErrTooBig = errors.New("ipsec: packet too big for the length field")
)

const icvLen = 12 // HMAC-SHA1-96
const otpTagLen = 8

// Sequence-number lifecycle bounds. ESP sequence numbers are 32 bits
// and must never wrap: seq 0 is the replay sentinel, so a wrapped
// sender would have every subsequent packet dropped and the receiver
// window poisoned at the far edge. Seal therefore hard-stops (with
// ErrExpired, so the gateway treats it as any other lifetime expiry and
// rekeys) at seqHardLimit, and the SA starts signalling for a rekey a
// soft margin earlier so IKE can roll the tunnel over before the stop.
const (
	seqHardLimit  = ^uint32(0)
	seqSoftMargin = 1 << 16
	seqSoftLimit  = seqHardLimit - seqSoftMargin
)

// DefaultGrace is the supersession tolerance: how long a replaced or
// expired inbound SA keeps decrypting in-flight traffic before Open
// refuses it and the SAD drops it. Long enough for packets already on
// the wire, short enough that an undead SA cannot serve stale key.
const DefaultGrace = 2 * time.Second

// SA is one unidirectional Security Association.
type SA struct {
	SPI     uint32
	Suite   CipherSuite
	Life    Lifetime
	Created time.Time

	mu          sync.Mutex
	seq         uint32
	bytesSealed uint64
	bytesOpened uint64

	// Cached key schedules, built once at construction, not per packet:
	// the AES round keys held in place, the 3DES block cipher and the
	// HMAC pad states.
	aesKey aesctr.Key
	block  cipher.Block // 3DES only
	mac    hmacsha1.MAC
	icv    [hmacsha1.Size]byte // scratch for mac.Sum

	// Lifecycle: a rollover marks the superseded generation, which keeps
	// decrypting in-flight traffic until retireAt and is then refused.
	superseded bool
	retireAt   time.Time
	softFired  bool

	// replay window state (receiver side)
	maxSeq uint32
	window uint64

	// OTP state: the pad and the Wegman-Carter hash keyed by its first
	// 8 bytes. Only OTP SAs allocate the hash's 2 KiB of tables.
	pad     []byte
	padUsed int
	wc      *gf2.PolyHash

	// now is injectable for lifetime tests.
	now func() time.Time
}

// NewSA constructs a conventional-cipher SA. key must supply
// suite.KeyBits()/8 bytes (encryption key then integrity key).
func NewSA(spi uint32, suite CipherSuite, key []byte, life Lifetime) (*SA, error) {
	if suite == SuiteOTP {
		return nil, fmt.Errorf("ipsec: use NewOTPSA for the one-time-pad suite")
	}
	need := suite.KeyBits() / 8
	if len(key) != need {
		return nil, fmt.Errorf("ipsec: suite %v needs %d key bytes, got %d", suite, need, len(key))
	}
	var encLen int
	switch suite {
	case SuiteAES128CTR:
		encLen = 16
	case Suite3DESCBC:
		encLen = 24
	case SuiteNull:
		encLen = 0
	default:
		return nil, fmt.Errorf("ipsec: unknown suite %v", suite)
	}
	sa := &SA{
		SPI:   spi,
		Suite: suite,
		Life:  life,
		now:   time.Now,
	}
	// Stamp through the SA's own clock so a later SetClock rebase and
	// the construction stamp agree on one time source.
	sa.Created = sa.now()
	// Run the key schedules once; every Seal/Open reuses them, and
	// the SA keeps no copy of the key.
	var err error
	switch suite {
	case SuiteAES128CTR:
		err = sa.aesKey.Init(key[:encLen])
	case Suite3DESCBC:
		sa.block, err = des.NewTripleDESCipher(key[:encLen])
	}
	if err != nil {
		return nil, fmt.Errorf("ipsec: key schedule: %w", err)
	}
	sa.mac = hmacsha1.New(key[encLen:])
	return sa, nil
}

// NewOTPSA constructs a one-time-pad SA over the given pad block —
// under IKE's QPFS extension a lockstep reservoir withdrawal, or (when
// the gateway runs against the key delivery service) a (stream,
// sequence) ticket block both ends claimed from their KDS. The
// first 8 pad bytes become the Wegman-Carter polynomial key; the rest
// encrypt and tag traffic until exhausted.
func NewOTPSA(spi uint32, pad []byte, life Lifetime) (*SA, error) {
	if len(pad) < 64 {
		return nil, fmt.Errorf("ipsec: OTP pad of %d bytes is uselessly small", len(pad))
	}
	sa := &SA{
		SPI:   spi,
		Suite: SuiteOTP,
		Life:  life,
		wc:    gf2.NewPolyHash(binary.LittleEndian.Uint64(pad[:8])),
		pad:   append([]byte(nil), pad[8:]...),
		now:   time.Now,
	}
	sa.Created = sa.now()
	return sa, nil
}

// SetClock injects a time source (tests).
func (sa *SA) SetClock(now func() time.Time) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.now = now
	sa.Created = now()
}

// clockNow reads the SA's (possibly injected) clock.
func (sa *SA) clockNow() time.Time {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.now()
}

// Expired reports whether either lifetime bound has passed. Expired SAs
// refuse to seal; IKE notices and negotiates a replacement ("key
// rollover").
func (sa *SA) Expired() bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.expiredLocked()
}

func (sa *SA) expiredLocked() bool {
	if sa.Life.Duration > 0 && sa.now().Sub(sa.Created) >= sa.Life.Duration {
		return true
	}
	if sa.Life.Bytes > 0 && sa.bytesSealed >= sa.Life.Bytes {
		return true
	}
	if sa.Suite == SuiteOTP && sa.padUsed >= len(sa.pad) {
		return true
	}
	if sa.seq >= seqHardLimit {
		return true
	}
	return false
}

// Supersede marks this (inbound) SA as replaced by a newer rollover
// generation: Open keeps serving in-flight traffic until retireAt and
// refuses afterwards, so the tunnel drains gracefully instead of
// keeping an undead SA decrypting forever.
func (sa *SA) Supersede(retireAt time.Time) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if !sa.superseded {
		sa.superseded = true
		sa.retireAt = retireAt
	}
}

// Superseded reports whether a rollover has replaced this SA.
func (sa *SA) Superseded() bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.superseded
}

// Retired reports whether the SA must no longer decrypt: superseded
// past its grace window, or hard-expired past grace on its time bound.
func (sa *SA) Retired() bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.retiredLocked()
}

// retiredLocked reads the clock only for an SA that a time can retire,
// as expiredLocked does: Open runs it for every packet.
func (sa *SA) retiredLocked() bool {
	if !sa.superseded && sa.Life.Duration <= 0 {
		return false
	}
	now := sa.now()
	if sa.superseded && now.After(sa.retireAt) {
		return true
	}
	if sa.Life.Duration > 0 && now.Sub(sa.Created) >= sa.Life.Duration+DefaultGrace {
		return true
	}
	return false
}

// SoftExpiring latches once when the SA crosses its soft-expiry
// threshold — the sequence space or byte lifetime is mostly consumed —
// and the gateway fires the rekey trigger while traffic still flows,
// so the replacement lands before the hard stop wedges the tunnel.
func (sa *SA) SoftExpiring() bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.softFired {
		return false
	}
	soft := sa.seq >= seqSoftLimit
	if sa.Life.Bytes > 0 && sa.bytesSealed >= sa.Life.Bytes-sa.Life.Bytes/8 {
		soft = true
	}
	if sa.Suite == SuiteOTP && sa.padUsed >= len(sa.pad)-len(sa.pad)/8 {
		soft = true
	}
	if soft {
		sa.softFired = true
	}
	return soft
}

// PadRemaining returns unconsumed OTP pad bytes (0 for other suites).
func (sa *SA) PadRemaining() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return len(sa.pad) - sa.padUsed
}

// appendZeros extends b by n writable bytes, reusing spare capacity
// when there is any (the reused region may hold stale bytes — callers
// overwrite every byte they take). This is what lets a pooled arena
// absorb a whole burst of sealed packets with no per-packet make.
func appendZeros(b []byte, n int) []byte {
	if n <= cap(b)-len(b) {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(nb, b)
	return nb
}

// Seal encapsulates payload:
//
//	conventional: SPI | seq | IV | ciphertext | HMAC-SHA1-96
//	OTP:          SPI | seq | padOffset(8) | ciphertext | WC tag(8)
func (sa *SA) Seal(payload []byte) ([]byte, error) {
	return sa.SealAppend(nil, payload)
}

// SealAppend is Seal in append style: the sealed blob is appended to
// dst (which may be nil) and the extended slice returned. Threading
// one reusable buffer through marshal and seal is how the batched
// gateway path kills the per-packet allocations; on error dst is
// returned unextended.
func (sa *SA) SealAppend(dst, payload []byte) ([]byte, error) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.sealAppendLocked(dst, payload)
}

func (sa *SA) sealAppendLocked(dst, payload []byte) ([]byte, error) {
	if sa.expiredLocked() {
		return dst, ErrExpired
	}
	sa.seq++
	seq := sa.seq

	if sa.Suite == SuiteOTP {
		need := len(payload) + otpTagLen
		if sa.padUsed+need > len(sa.pad) {
			return dst, ErrPadExhaust
		}
		offset := sa.padUsed
		start := len(dst)
		dst = appendZeros(dst, 16+len(payload)+otpTagLen)
		out := dst[start:]
		binary.BigEndian.PutUint32(out[0:], sa.SPI)
		binary.BigEndian.PutUint32(out[4:], seq)
		binary.BigEndian.PutUint64(out[8:], uint64(offset))
		subtle.XORBytes(out[16:16+len(payload)], payload, sa.pad[offset:offset+len(payload)])
		tagPad := binary.LittleEndian.Uint64(sa.pad[offset+len(payload) : offset+len(payload)+8])
		tag := sa.wc.Sum(out[:16+len(payload)]) ^ tagPad
		binary.LittleEndian.PutUint64(out[16+len(payload):], tag)
		sa.padUsed += need
		sa.bytesSealed += uint64(len(payload))
		return dst, nil
	}

	ivLen := sa.ivLen()
	ctLen := len(payload)
	if sa.Suite == Suite3DESCBC {
		bs := sa.block.BlockSize()
		ctLen = len(payload) + bs - len(payload)%bs
	}
	start := len(dst)
	dst = appendZeros(dst, 8+ivLen+ctLen+icvLen)
	out := dst[start:]
	binary.BigEndian.PutUint32(out[0:], sa.SPI)
	binary.BigEndian.PutUint32(out[4:], seq)
	// The IV is SPI|seq zero-extended to the block size, written in
	// place: a stack copy handed to crypto/cipher would escape per packet.
	iv := out[8 : 8+ivLen]
	n := copy(iv, out[:8])
	clear(iv[n:])
	ct := out[8+ivLen : 8+ivLen+ctLen]
	switch sa.Suite {
	case SuiteNull:
		copy(ct, payload)
	case SuiteAES128CTR:
		sa.aesKey.XORKeyStream(ct, payload, (*[aesctr.BlockSize]byte)(iv))
	case Suite3DESCBC:
		copy(ct, payload)
		padB := byte(ctLen - len(payload))
		for i := len(payload); i < ctLen; i++ {
			ct[i] = padB
		}
		cipher.NewCBCEncrypter(sa.block, iv).CryptBlocks(ct, ct)
	default:
		return dst[:start], fmt.Errorf("ipsec: suite %v cannot seal", sa.Suite)
	}
	copy(out[8+ivLen+ctLen:], sa.icvLocked(out[:8+ivLen+ctLen]))
	sa.bytesSealed += uint64(len(payload))
	return dst, nil
}

// icvLocked computes the HMAC-SHA1-96 tag with the cached MAC. It
// runs under sa.mu: the MAC's crypto/hmac fallback, like any hash.Hash,
// is not safe for concurrent use, and sa.icv is shared scratch.
func (sa *SA) icvLocked(body []byte) []byte {
	sa.mac.Sum(&sa.icv, body)
	return sa.icv[:icvLen]
}

// Open verifies, replay-checks and decrypts a sealed blob. An SA past
// its lifetime refuses to decrypt, grace-tolerantly: a superseded or
// time-expired SA keeps serving for its grace window (in-flight
// packets), then returns ErrExpired; the byte lifetime mirrors the
// sender's check-then-count order exactly, so legitimate traffic sealed
// under the bound always opens.
func (sa *SA) Open(blob []byte) ([]byte, error) {
	out, err := sa.OpenAppend(nil, blob)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OpenAppend is Open in append style: the recovered payload is
// appended to dst (which may be nil) and the extended slice returned.
// On error dst comes back unextended, so a batch arena never keeps
// half-decrypted bytes.
func (sa *SA) OpenAppend(dst, blob []byte) ([]byte, error) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.openAppendLocked(dst, blob)
}

func (sa *SA) openAppendLocked(dst, blob []byte) ([]byte, error) {
	if len(blob) < 8 {
		return dst, fmt.Errorf("ipsec: ESP blob too short")
	}
	spi := binary.BigEndian.Uint32(blob[0:])
	if spi != sa.SPI {
		return dst, fmt.Errorf("%w: %#x", ErrUnknownSPI, spi)
	}
	if sa.retiredLocked() {
		return dst, ErrExpired
	}
	if sa.Life.Bytes > 0 && sa.bytesOpened >= sa.Life.Bytes {
		return dst, ErrExpired
	}
	seq := binary.BigEndian.Uint32(blob[4:])

	start := len(dst)
	if sa.Suite == SuiteOTP {
		if len(blob) < 16+otpTagLen {
			return dst, fmt.Errorf("ipsec: OTP blob too short")
		}
		offset := binary.BigEndian.Uint64(blob[8:16])
		ct := blob[16 : len(blob)-otpTagLen]
		// The offset is attacker-controlled: bound it before any
		// arithmetic on it, since offset+len(ct)+otpTagLen can wrap
		// uint64, slip past the range check, and panic slicing the pad.
		if offset > uint64(len(sa.pad)) ||
			offset+uint64(len(ct))+otpTagLen > uint64(len(sa.pad)) {
			return dst, ErrPadExhaust
		}
		tagPad := binary.LittleEndian.Uint64(sa.pad[offset+uint64(len(ct)) : offset+uint64(len(ct))+8])
		want := sa.wc.Sum(blob[:len(blob)-otpTagLen]) ^ tagPad
		got := binary.LittleEndian.Uint64(blob[len(blob)-otpTagLen:])
		if want != got {
			return dst, ErrIntegrity
		}
		dst = appendZeros(dst, len(ct))
		subtle.XORBytes(dst[start:], ct, sa.pad[offset:offset+uint64(len(ct))])
	} else {
		ivLen := sa.ivLen()
		if len(blob) < 8+ivLen+icvLen {
			return dst, fmt.Errorf("ipsec: ESP blob too short")
		}
		body := blob[:len(blob)-icvLen]
		if subtle.ConstantTimeCompare(sa.icvLocked(body), blob[len(blob)-icvLen:]) != 1 {
			return dst, ErrIntegrity
		}
		iv := blob[8 : 8+ivLen]
		data := body[8+ivLen:]
		switch sa.Suite {
		case SuiteNull:
			dst = append(dst, data...)
		case SuiteAES128CTR:
			dst = appendZeros(dst, len(data))
			sa.aesKey.XORKeyStream(dst[start:], data, (*[aesctr.BlockSize]byte)(iv))
		case Suite3DESCBC:
			bs := sa.block.BlockSize()
			if len(data)%bs != 0 || len(data) == 0 {
				return dst[:start], fmt.Errorf("ipsec: bad 3DES ciphertext length %d", len(data))
			}
			dst = appendZeros(dst, len(data))
			cipher.NewCBCDecrypter(sa.block, iv).CryptBlocks(dst[start:], data)
			plain, err := pkcs7Unpad(dst[start:], bs)
			if err != nil {
				return dst[:start], err
			}
			dst = dst[:start+len(plain)]
		default:
			return dst, fmt.Errorf("ipsec: suite %v cannot open", sa.Suite)
		}
	}

	// Anti-replay: accept only inside a 64-wide sliding window, each
	// sequence number at most once. Checked after integrity so forged
	// sequence numbers cannot poison the window.
	if err := sa.replayCheckLocked(seq); err != nil {
		return dst[:start], err
	}
	sa.bytesOpened += uint64(len(dst) - start)
	return dst, nil
}

// replayCheckLocked implements the RFC 2401 sliding window.
func (sa *SA) replayCheckLocked(seq uint32) error {
	const windowSize = 64
	switch {
	case seq == 0:
		return ErrReplay
	case seq > sa.maxSeq:
		shift := seq - sa.maxSeq
		if shift >= windowSize {
			sa.window = 0
		} else {
			sa.window <<= shift
		}
		sa.window |= 1
		sa.maxSeq = seq
	default:
		diff := sa.maxSeq - seq
		if diff >= windowSize {
			return ErrReplay
		}
		bit := uint64(1) << diff
		if sa.window&bit != 0 {
			return ErrReplay
		}
		sa.window |= bit
	}
	return nil
}

func (sa *SA) ivLen() int {
	switch sa.Suite {
	case SuiteAES128CTR:
		return 16
	case Suite3DESCBC:
		return 8
	default:
		return 0
	}
}

func pkcs7Unpad(data []byte, block int) ([]byte, error) {
	if len(data) == 0 || len(data)%block != 0 {
		return nil, fmt.Errorf("ipsec: bad padded length")
	}
	n := int(data[len(data)-1])
	if n == 0 || n > block || n > len(data) {
		return nil, fmt.Errorf("ipsec: bad padding")
	}
	for _, b := range data[len(data)-n:] {
		if int(b) != n {
			return nil, fmt.Errorf("ipsec: bad padding")
		}
	}
	return data[:len(data)-n], nil
}
