package ike

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"testing"

	"qkd/internal/hmacsha1"
)

// refPRF is HMAC-SHA1 straight from crypto/hmac.
func refPRF(key, data []byte) []byte {
	h := hmac.New(sha1.New, key)
	h.Write(data)
	return h.Sum(nil)
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestKeyDerivationKnownAnswers pins IKE's key derivation to a
// crypto/hmac reference: prf, KEYMAT expansion (K1 = prf(key,
// seed|1), Ki = prf(key, K(i-1)|seed|i)) and the 12-byte control tag.
// The KEYMAT lengths are the AES, 3DES and null suites' 36, 44 and 20
// bytes, which take two, three and one prf blocks; the keys are empty,
// SKEYID-sized and longer than a SHA-1 block, which HMAC hashes first.
// A derivation change otherwise shows only as two daemons that still
// agree with each other.
func TestKeyDerivationKnownAnswers(t *testing.T) {
	seed := []byte("qbits|nonces|spi")
	body := []byte{kindPh2BatchReq, 1, 2, 3, 4, 5}
	for _, key := range [][]byte{nil, bytes.Repeat([]byte{0x5a}, 20), bytes.Repeat([]byte{0xa5}, 80)} {
		if got, want := prf(key, seed), refPRF(key, seed); !bytes.Equal(got, want) {
			t.Errorf("%d-byte key: prf = %x, want %x", len(key), got, want)
		}
		k1 := refPRF(key, cat(seed, []byte{1}))
		k2 := refPRF(key, cat(k1, seed, []byte{2}))
		k3 := refPRF(key, cat(k2, seed, []byte{3}))
		keymat := cat(k1, k2, k3)
		for _, n := range []int{36, 44, 20} {
			if got := expandKeymat(key, seed, n); !bytes.Equal(got, keymat[:n]) {
				t.Errorf("%d-byte key: %d-byte KEYMAT = %x, want %x", len(key), n, got, keymat[:n])
			}
		}
		d := &Daemon{skeyMAC: hmacsha1.New(key)}
		if got, want := d.tag(body), refPRF(key, body)[:12]; !bytes.Equal(got, want) {
			t.Errorf("%d-byte key: control tag = %x, want %x", len(key), got, want)
		}
	}
}
