package gf2

import "encoding/binary"

// field64 is GF(2^64), the field PolyHash evaluates in.
var field64 = newField(64, knownPolys[64])

// PolyHash is the Wegman-Carter polynomial hash over GF(2^64) under
// one 64-bit key k. A message m of n 8-byte little-endian blocks
// m_1..m_n, the last one zero-padded, hashes by Horner's rule to
//
//	h_k(m) = m_1·k^(n+1) + ... + m_n·k^2 + len(m)·k
//
// The length block forecloses padding ambiguity between messages that
// differ only in trailing zero bytes. For distinct messages of at most
// L bytes, h_k(m) XOR h_k(m') takes any given value for at most
// ⌈L/8⌉+1 of the 2^64 keys, so a tag h_k(m) XOR r under a fresh
// one-time pad r is forged with at most that chance over 2^64. auth
// tags the public channel this way and the ipsec OTP suite every
// packet.
//
// The key is held only as nibble tables: tab[p][v] is (v·x^(4p))·k, so
// multiplying by k is 16 table loads xored together, with no
// allocation and no reduction (the GHASH software method). That is
// 2 KiB per key, built once.
type PolyHash struct {
	tab [16][16]uint64
}

// NewPolyHash builds the tables for key.
func NewPolyHash(key uint64) *PolyHash {
	h := new(PolyHash)
	for v := uint64(1); v < 16; v++ {
		h.tab[0][v] = field64.mul64(v, key)
	}
	for p := 1; p < 16; p++ {
		for v := 1; v < 16; v++ {
			h.tab[p][v] = field64.mul64(h.tab[p-1][v], 0x10) // up one nibble: ·x^4
		}
	}
	return h
}

// mul returns x·k.
func (h *PolyHash) mul(x uint64) uint64 {
	t := &h.tab
	return t[0][x&15] ^ t[1][x>>4&15] ^ t[2][x>>8&15] ^ t[3][x>>12&15] ^
		t[4][x>>16&15] ^ t[5][x>>20&15] ^ t[6][x>>24&15] ^ t[7][x>>28&15] ^
		t[8][x>>32&15] ^ t[9][x>>36&15] ^ t[10][x>>40&15] ^ t[11][x>>44&15] ^
		t[12][x>>48&15] ^ t[13][x>>52&15] ^ t[14][x>>56&15] ^ t[15][x>>60]
}

// Sum returns h_k(msg). It allocates nothing.
func (h *PolyHash) Sum(msg []byte) uint64 {
	var acc uint64
	n := len(msg)
	for len(msg) >= 8 {
		acc = h.mul(acc) ^ binary.LittleEndian.Uint64(msg)
		msg = msg[8:]
	}
	if len(msg) > 0 {
		var block [8]byte
		copy(block[:], msg)
		acc = h.mul(acc) ^ binary.LittleEndian.Uint64(block[:])
	}
	acc = h.mul(acc) ^ uint64(n)
	return h.mul(acc)
}
