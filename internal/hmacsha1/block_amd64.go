package hmacsha1

// haveSHANI reports whether this CPU runs blockSHANI: CPUID's maximum
// leaf reaches 7, leaf 7 sets EBX bit 29 (SHA), and leaf 1 sets ECX
// bits 9 (SSSE3) and 19 (SSE4.1).
var haveSHANI = detectSHANI()

func detectSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// blockSHANI compresses the whole 64-byte blocks of p into h.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
