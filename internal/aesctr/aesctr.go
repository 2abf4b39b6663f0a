// Package aesctr is the AES-128-CTR keystream behind ESP's AES suite.
//
// Init expands a key once, in place, into the 11 round keys a Key holds
// by value, so an SA that embeds its Key runs the key schedule once and
// holds no heap object for it. XORKeyStream XORs the keystream into dst
// in one call to SSE AES-NI assembly: it builds the counter blocks with
// PSHUFB and carries across all 128 bits, runs eight blocks in flight
// per 128-byte group and then one block at a time, and finishes a
// partial last block through a 16-byte stack buffer. It works at every
// length, in place too, and allocates nothing. The assembly is chosen
// once at start-up from CPUID; any other CPU or GOARCH gets
// crypto/cipher's CTR over a crypto/aes block, which allocates its
// stream on every call.
package aesctr

import (
	"crypto/aes"
	"crypto/cipher"
)

const (
	// KeySize is the length of an AES-128 key in bytes.
	KeySize = 16
	// BlockSize is the length of an AES block, and so of a counter
	// block, in bytes.
	BlockSize = aes.BlockSize

	roundKeysSize = 11 * BlockSize
)

// Key is one AES-128 key ready for CTR keystreams. The zero Key is not
// usable: call Init first. A Key is not changed by XORKeyStream, so one
// key may run concurrent keystreams.
type Key struct {
	// rk holds the round keys, in the order AESENC takes them (AES-NI
	// only).
	rk [roundKeysSize]byte
	// block is crypto/aes's cipher on CPUs without AES-NI; nil with it.
	block cipher.Block
}

// AESNI reports whether Key runs the AES-NI assembly on this CPU.
// Without it, every XORKeyStream allocates crypto/cipher's stream.
func AESNI() bool { return haveAESNI }

// Init expands key, which must be KeySize bytes, into k.
func (k *Key) Init(key []byte) error {
	if len(key) != KeySize {
		return aes.KeySizeError(len(key))
	}
	if !haveAESNI {
		return k.initStd(key)
	}
	k.initAESNI(key)
	return nil
}

func (k *Key) initAESNI(key []byte) {
	expandKeyAESNI(&k.rk, (*[KeySize]byte)(key))
	k.block = nil
}

func (k *Key) initStd(key []byte) (err error) {
	k.block, err = aes.NewCipher(key)
	return err
}

// XORKeyStream sets dst to src XOR the keystream whose first counter
// block is iv, byte for byte what cipher.NewCTR(block, iv[:])'s
// XORKeyStream(dst, src) produces: the counter is one 128-bit
// big-endian integer and wraps at 2^128. dst must be at least as long
// as src, and the two must overlap entirely or not at all.
func (k *Key) XORKeyStream(dst, src []byte, iv *[BlockSize]byte) {
	if len(dst) < len(src) {
		panic("aesctr: output smaller than input")
	}
	if k.block != nil {
		cipher.NewCTR(k.block, iv[:]).XORKeyStream(dst, src)
		return
	}
	xorKeyStreamAESNI(&k.rk, dst, src, iv)
}
