package hmacsha1

import "qkd/internal/cpuid"

// haveSHANI reports whether this CPU runs blockSHANI: CPUID reports SHA,
// plus SSSE3 (PSHUFB) and SSE4.1 (PINSRD, PEXTRD).
var haveSHANI = cpuid.X86.HasSHA && cpuid.X86.HasSSSE3 && cpuid.X86.HasSSE41

// blockSHANI compresses the whole 64-byte blocks of p into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
