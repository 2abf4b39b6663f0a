package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzSA builds a receive-side SA of the given suite with a
// deterministic key/pad (sequence state fresh per call).
func fuzzSA(tb testing.TB, suite CipherSuite, spi uint32) *SA {
	tb.Helper()
	var sa *SA
	var err error
	if suite == SuiteOTP {
		sa, err = NewOTPSA(spi, randKey(8+64*1024, 77), Lifetime{})
	} else {
		sa, err = NewSA(spi, suite, randKey(suite.KeyBits()/8, 77), Lifetime{})
	}
	if err != nil {
		tb.Fatal(err)
	}
	return sa
}

var fuzzSuites = []CipherSuite{SuiteNull, SuiteAES128CTR, Suite3DESCBC, SuiteOTP}

// refSealAES is an independent ESP sealer for the AES suite, built
// straight from crypto/aes, cipher.NewCTR and crypto/hmac:
// SPI | seq | IV = SPI|seq|0^8 | AES-128-CTR ciphertext | HMAC-SHA1-96
// over everything before it. key is the SA's key (encryption key then
// integrity key).
func refSealAES(tb testing.TB, key []byte, spi, seq uint32, payload []byte) []byte {
	tb.Helper()
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		tb.Fatal(err)
	}
	blob := make([]byte, 8+aes.BlockSize+len(payload))
	binary.BigEndian.PutUint32(blob, spi)
	binary.BigEndian.PutUint32(blob[4:], seq)
	iv := blob[8 : 8+aes.BlockSize]
	copy(iv, blob[:8])
	cipher.NewCTR(block, iv).XORKeyStream(blob[8+aes.BlockSize:], payload)
	mac := hmac.New(sha1.New, key[16:])
	mac.Write(blob)
	return append(blob, mac.Sum(nil)[:icvLen]...)
}

// TestSealAESWireBytes pins the AES suite's wire format against
// refSealAES for every payload length from 0 to 256 bytes and a
// full-size packet: a seal/open round trip cannot catch a
// keystream both ends get wrong the same way. Open must accept every
// reference blob. The keystream itself must also match cipher.NewCTR
// across a carry out of the counter's low 64 bits, which an IV read
// off the wire may start next to.
func TestSealAESWireBytes(t *testing.T) {
	const spi = 0x5eed
	key := randKey(SuiteAES128CTR.KeyBits()/8, 31)
	tx, err := NewSA(spi, SuiteAES128CTR, key, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSA(spi, SuiteAES128CTR, key, Lifetime{})
	if err != nil {
		t.Fatal(err)
	}
	payload := randKey(1400, 32)
	var lengths []int
	for n := 0; n <= 256; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1400)
	for i, n := range lengths {
		want := refSealAES(t, key, spi, uint32(i+1), payload[:n])
		got, err := tx.Seal(payload[:n])
		if err != nil {
			t.Fatalf("%d B: Seal: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d B: sealed bytes differ from the crypto/cipher reference", n)
		}
		plain, err := rx.Open(want)
		if err != nil {
			t.Fatalf("%d B: Open of the reference blob: %v", n, err)
		}
		if !bytes.Equal(plain, payload[:n]) {
			t.Fatalf("%d B: Open of the reference blob returned other bytes", n)
		}
	}

	block, err := aes.NewCipher(key[:16])
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []uint64{^uint64(0), ^uint64(0) - 3} {
		for _, hi := range []uint64{7, ^uint64(0)} {
			iv := make([]byte, aes.BlockSize)
			binary.BigEndian.PutUint64(iv, hi)
			binary.BigEndian.PutUint64(iv[8:], lo)
			src := payload[:192]
			want := make([]byte, len(src))
			cipher.NewCTR(block, iv).XORKeyStream(want, src)
			got := make([]byte, len(src))
			tx.aesKey.XORKeyStream(got, src, (*[aes.BlockSize]byte)(iv))
			if !bytes.Equal(got, want) {
				t.Errorf("IV %016x%016x: keystream differs from cipher.NewCTR", hi, lo)
			}
		}
	}
}

// FuzzSealOpen round-trips arbitrary payloads through every cipher
// suite: whatever Seal produces, a same-keyed receiver must Open back
// to the original bytes, and neither side may panic. AES blobs must
// also equal refSealAES's byte for byte; the last seeds sit on either
// side of 192 bytes, where the keystream once changed implementation,
// and of 128, the AES-NI kernel's 8-block group.
func FuzzSealOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ping"))
	f.Add(bytes.Repeat([]byte{0xA5}, 1400))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0x3C}, 191))
	f.Add(bytes.Repeat([]byte{0x3C}, 192))
	f.Add(bytes.Repeat([]byte{0x3C}, 193))
	f.Add(bytes.Repeat([]byte{0x3C}, 127))
	f.Add(bytes.Repeat([]byte{0x3C}, 128))
	f.Add(bytes.Repeat([]byte{0x3C}, 129))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 8*1024 {
			payload = payload[:8*1024]
		}
		for _, suite := range fuzzSuites {
			tx := fuzzSA(t, suite, 500)
			rx := fuzzSA(t, suite, 500)
			blob, err := tx.Seal(payload)
			if err != nil {
				t.Fatalf("%v: Seal: %v", suite, err)
			}
			if suite == SuiteAES128CTR {
				want := refSealAES(t, randKey(suite.KeyBits()/8, 77), 500, 1, payload)
				if !bytes.Equal(blob, want) {
					t.Fatalf("%v: %d-byte payload sealed differently from the crypto/cipher reference",
						suite, len(payload))
				}
			}
			got, err := rx.Open(blob)
			if err != nil {
				t.Fatalf("%v: Open: %v", suite, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%v: round-trip mismatch: %d bytes in, %d out", suite, len(payload), len(got))
			}
		}
	})
}

// FuzzOTPOpen throws malformed blobs at the OTP wire format
// (SPI|seq|padOffset|ct|tag). Seeds cover the historic failure modes:
// truncation below the header, a pad offset whose addition wraps
// uint64 (the satellite overflow bug), and a flipped tag. Open must
// reject without panicking, and only a pristine blob may verify.
func FuzzOTPOpen(f *testing.F) {
	mk := func(mutate func(b []byte)) []byte {
		sa := fuzzSA(f, SuiteOTP, 900)
		blob, err := sa.Seal([]byte("attack at dawn"))
		if err != nil {
			f.Fatal(err)
		}
		if mutate != nil {
			mutate(blob)
		}
		return blob
	}
	f.Add(mk(nil))
	f.Add(mk(nil)[:7])        // shorter than SPI|seq
	f.Add(mk(nil)[:15])       // header cut mid-offset
	f.Add(mk(func(b []byte) { // offset overflow: 2^64-8 wraps the bounds sum
		binary.BigEndian.PutUint64(b[8:16], ^uint64(0)-7)
	}))
	f.Add(mk(func(b []byte) { // offset just past the pad
		binary.BigEndian.PutUint64(b[8:16], 1<<40)
	}))
	f.Add(mk(func(b []byte) { b[len(b)-1] ^= 1 })) // flipped tag bit
	f.Add(mk(func(b []byte) { b[16] ^= 0x80 }))    // flipped ciphertext bit
	f.Fuzz(func(t *testing.T, blob []byte) {
		rx := fuzzSA(t, SuiteOTP, 900)
		pristine, err := rx.Open(blob)
		if err != nil {
			return // rejected without panic: fine
		}
		// It verified — then it must be the one honest blob.
		if !bytes.Equal(pristine, []byte("attack at dawn")) {
			t.Fatalf("forged blob verified: %q", pristine)
		}
	})
}

// TestOTPOpenOffsetOverflow pins the satellite fix directly: a blob
// whose pad offset makes offset+len(ct)+tagLen wrap uint64 must be
// rejected as pad exhaustion, not panic on the pad slice.
func TestOTPOpenOffsetOverflow(t *testing.T) {
	tx := fuzzSA(t, SuiteOTP, 901)
	blob, err := tx.Seal([]byte("overflow probe"))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{^uint64(0), ^uint64(0) - 7, ^uint64(0) - 1024, 1 << 40} {
		b := append([]byte(nil), blob...)
		binary.BigEndian.PutUint64(b[8:16], off)
		rx := fuzzSA(t, SuiteOTP, 901)
		if _, err := rx.Open(b); !errors.Is(err, ErrPadExhaust) {
			t.Errorf("offset %#x: err = %v, want ErrPadExhaust", off, err)
		}
	}
}
