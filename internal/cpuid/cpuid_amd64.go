package cpuid

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	X86.HasSSSE3 = ecx1&(1<<9) != 0
	X86.HasSSE41 = ecx1&(1<<19) != 0
	X86.HasAES = ecx1&(1<<25) != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		X86.HasSHA = ebx7&(1<<29) != 0
	}
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
