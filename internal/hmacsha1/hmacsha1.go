// Package hmacsha1 is the HMAC-SHA1 (RFC 2104) behind ESP's
// HMAC-SHA1-96 integrity check and IKE's prf.
//
// New hashes the key's inner and outer pad blocks once, into two SHA-1
// chaining values held by value in the MAC. Sum then compresses only
// the message's whole blocks, its one or two padded final blocks and
// one outer block: no state is marshaled or restored, nothing goes
// through an interface, and nothing is allocated. The block function is
// SHA-NI assembly, chosen once at start-up from CPUID. Any other CPU or
// GOARCH gets a MAC backed by crypto/hmac over crypto/sha1 instead of a
// portable Go block function, because the standard library's own block
// functions (AVX2 on large inputs) beat a Go one on the same
// precomputed states.
package hmacsha1

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"hash"
)

// Size is the length of an HMAC-SHA1 tag in bytes.
const Size = sha1.Size

const blockSize = sha1.BlockSize

// iv is SHA-1's initial chaining value.
var iv = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// MAC computes HMAC-SHA1 under one key. It is not safe for concurrent
// use: the crypto/hmac fallback reuses one hash state, like any
// hash.Hash.
type MAC struct {
	// inner and outer are the chaining values after the key's ipad and
	// opad blocks (SHA-NI only).
	inner, outer [5]uint32
	// std is the crypto/hmac state on CPUs without SHA-NI; nil with it.
	std hash.Hash
}

// New returns the MAC for key. Keys longer than a SHA-1 block are
// hashed first, as RFC 2104 says.
func New(key []byte) MAC {
	if haveSHANI {
		return newSHANI(key)
	}
	return newStd(key)
}

func newSHANI(key []byte) MAC {
	var pad [blockSize]byte
	if len(key) > blockSize {
		sum := sha1.Sum(key)
		copy(pad[:], sum[:])
	} else {
		copy(pad[:], key)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	m := MAC{inner: iv, outer: iv}
	blockSHANI(&m.inner, pad[:])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	blockSHANI(&m.outer, pad[:])
	return m
}

func newStd(key []byte) MAC {
	return MAC{std: hmac.New(sha1.New, key)}
}

// Sum sets dst to HMAC-SHA1(key, msg).
func (m *MAC) Sum(dst *[Size]byte, msg []byte) {
	if m.std != nil {
		m.std.Reset()
		m.std.Write(msg)
		m.std.Sum(dst[:0])
		return
	}
	// Inner hash: the whole blocks straight from msg, then the tail
	// with SHA-1's padding. The length counts the ipad block too.
	h := m.inner
	whole := len(msg) &^ (blockSize - 1)
	blockSHANI(&h, msg[:whole])
	var buf [2 * blockSize]byte
	n := copy(buf[:], msg[whole:])
	buf[n] = 0x80
	end := blockSize
	if n >= blockSize-8 {
		end = 2 * blockSize
	}
	binary.BigEndian.PutUint64(buf[end-8:], uint64(blockSize+len(msg))*8)
	blockSHANI(&h, buf[:end])

	// Outer hash: one block holding the inner digest and its padding.
	var ob [blockSize]byte
	putDigest(ob[:], &h)
	ob[Size] = 0x80
	binary.BigEndian.PutUint64(ob[blockSize-8:], (blockSize+Size)*8)
	o := m.outer
	blockSHANI(&o, ob[:])
	putDigest(dst[:], &o)
}

// putDigest writes a chaining value big-endian, as SHA-1 outputs it.
func putDigest(b []byte, h *[5]uint32) {
	_ = b[Size-1]
	for i, v := range h {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
}
