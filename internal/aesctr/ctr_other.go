//go:build !amd64

package aesctr

const haveAESNI = false

// The assembly is never called without AES-NI: Init keys crypto/aes
// instead.

func expandKeyAESNI(rk *[roundKeysSize]byte, key *[KeySize]byte) {
	panic("aesctr: AES-NI key expansion called on a CPU without it")
}

func xorKeyStreamAESNI(rk *[roundKeysSize]byte, dst, src []byte, iv *[BlockSize]byte) {
	panic("aesctr: AES-NI keystream called on a CPU without it")
}
