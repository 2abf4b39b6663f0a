// Package cpuid reports, once at start-up, the x86 instruction-set
// extensions the module's assembly kernels need: SHA for
// internal/hmacsha1, AES-NI for internal/aesctr, and the SSSE3 and
// SSE4.1 instructions both use around them. It holds the module's only
// CPUID stub; on other GOARCHes every field stays false.
package cpuid

// X86 holds the feature bits CPUID reported at init.
var X86 struct {
	HasAES   bool // leaf 1, ECX bit 25: AESENC, AESKEYGENASSIST
	HasSHA   bool // leaf 7, EBX bit 29: SHA1RNDS4 and its kin
	HasSSSE3 bool // leaf 1, ECX bit 9: PSHUFB
	HasSSE41 bool // leaf 1, ECX bit 19: PINSRD, PINSRQ, PEXTRD
}
