//go:build !amd64

package hmacsha1

const haveSHANI = false

// blockSHANI is never called without SHA-NI: New builds the crypto/hmac
// MAC instead.
func blockSHANI(h *[5]uint32, p []byte) {
	panic("hmacsha1: SHA-NI block function called on a CPU without it")
}
