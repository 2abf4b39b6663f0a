package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMatchesProcCPUInfo checks the probe against the kernel's own
// reading of CPUID, where Linux publishes one.
func TestMatchesProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("CPUID is read on amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo")
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = make(map[string]bool)
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{
		{"aes", X86.HasAES},
		{"sha_ni", X86.HasSHA},
		{"ssse3", X86.HasSSSE3},
		{"sse4_1", X86.HasSSE41},
	} {
		if c.got != flags[c.flag] {
			t.Errorf("%s: probe says %v, /proc/cpuinfo says %v", c.flag, c.got, flags[c.flag])
		}
	}
}
