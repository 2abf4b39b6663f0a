package aesctr

import "qkd/internal/cpuid"

// haveAESNI reports whether this CPU runs the assembly: CPUID reports
// AES-NI, plus SSSE3 (PSHUFB) and SSE4.1 (PINSRQ).
var haveAESNI = cpuid.X86.HasAES && cpuid.X86.HasSSSE3 && cpuid.X86.HasSSE41

// expandKeyAESNI writes AES-128's 11 round keys for key into rk.
//
//go:noescape
func expandKeyAESNI(rk *[roundKeysSize]byte, key *[KeySize]byte)

// xorKeyStreamAESNI sets dst[:len(src)] to src XOR the keystream under
// rk whose first counter block is iv.
//
//go:noescape
func xorKeyStreamAESNI(rk *[roundKeysSize]byte, dst, src []byte, iv *[BlockSize]byte)
