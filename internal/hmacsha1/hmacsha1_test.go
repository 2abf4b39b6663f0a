package hmacsha1

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"fmt"
	"testing"
)

// impls are the two MAC constructors, each reached directly so both
// are tested whichever one New picks on this CPU.
var impls = []struct {
	name string
	new  func([]byte) MAC
}{
	{"shani", newSHANI},
	{"std", newStd},
}

func skipWithoutSHANI(tb testing.TB, impl string) {
	tb.Helper()
	if impl == "shani" && !haveSHANI {
		tb.Skip("CPU lacks SHA-NI")
	}
}

func reference(key, msg []byte) []byte {
	h := hmac.New(sha1.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// boundaryLens are the message lengths where SHA-1's padding changes
// shape: an empty message, the last length whose padding fits one
// block (55), the first that needs two (56), and the same around the
// second block.
var boundaryLens = []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128}

// boundaryKeys: no key, a key of exactly one block, and the first
// length that is hashed before padding.
var boundaryKeys = []int{0, 20, 64, 65}

// TestSumMatchesCryptoHMAC compares both implementations with
// crypto/hmac at every padding and key-length boundary, reusing one
// MAC across messages so no Sum leaves state behind for the next.
func TestSumMatchesCryptoHMAC(t *testing.T) {
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			skipWithoutSHANI(t, impl.name)
			for _, kl := range boundaryKeys {
				key := pattern(kl, 0x4b)
				m := impl.new(key)
				for _, ml := range append(boundaryLens, 1400, 4096) {
					msg := pattern(ml, byte(ml))
					var got [Size]byte
					m.Sum(&got, msg)
					if want := reference(key, msg); !bytes.Equal(got[:], want) {
						t.Errorf("key %d B, msg %d B: %x, want %x", kl, ml, got, want)
					}
				}
			}
		})
	}
}

// TestNewPicksSHANIWhereAvailable checks the start-up choice: a MAC
// from New carries the crypto/hmac state exactly when the CPU lacks
// SHA-NI.
func TestNewPicksSHANIWhereAvailable(t *testing.T) {
	m := New([]byte("k"))
	if (m.std == nil) != haveSHANI {
		t.Fatalf("New: fallback %v on a CPU with SHA-NI %v", m.std != nil, haveSHANI)
	}
}

// TestSumAllocs pins the SHA-NI path at zero allocations: the whole
// point of precomputing the pad states by value.
func TestSumAllocs(t *testing.T) {
	skipWithoutSHANI(t, "shani")
	m := newSHANI(pattern(20, 1))
	msg := pattern(1440, 2)
	var out [Size]byte
	for _, n := range []int{0, 104, 1440} {
		if a := testing.AllocsPerRun(100, func() { m.Sum(&out, msg[:n]) }); a != 0 {
			t.Errorf("%d-byte Sum: %.1f allocs, want 0", n, a)
		}
	}
}

// FuzzMAC checks that, for any key and message, Sum equals crypto/hmac
// through both implementations. The seeds sit on the padding and
// key-length boundaries.
func FuzzMAC(f *testing.F) {
	for _, kl := range []int{0, 64, 65} {
		for _, ml := range []int{0, 55, 56, 63, 64, 119, 120} {
			f.Add(pattern(kl, 0x4b), pattern(ml, 0x6d))
		}
	}
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		want := reference(key, msg)
		for _, impl := range impls {
			if impl.name == "shani" && !haveSHANI {
				continue
			}
			m := impl.new(key)
			var got [Size]byte
			m.Sum(&got, msg)
			if !bytes.Equal(got[:], want) {
				t.Fatalf("%s: key %d B, msg %d B: %x, want %x", impl.name, len(key), len(msg), got, want)
			}
		}
	})
}

// BenchmarkSum times one tag from New's MAC over the ESP body of a
// 64-byte and of a 1,400-byte payload in an AES tunnel: SPI and
// sequence number (8 B), IV (16 B), then the 16-byte inner header and
// the payload, 104 and 1440 bytes. BenchmarkSumStd is the crypto/hmac
// fallback on the same inputs.
func BenchmarkSum(b *testing.B)    { benchSum(b, New) }
func BenchmarkSumStd(b *testing.B) { benchSum(b, newStd) }

func benchSum(b *testing.B, newMAC func([]byte) MAC) {
	for _, n := range []int{104, 1440} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			m := newMAC(pattern(20, 1))
			msg := pattern(n, 2)
			var out [Size]byte
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for b.Loop() {
				m.Sum(&out, msg)
			}
		})
	}
}
