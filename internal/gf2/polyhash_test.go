package gf2

import (
	"encoding/binary"
	"testing"

	"qkd/internal/rng"
)

// refPolyHash is PolyHash's definition evaluated with the generic
// slice multiply: Horner's rule over 8-byte little-endian blocks, the
// tail zero-padded, then the length block and a last multiply.
func refPolyHash(f *Field, key uint64, msg []byte) uint64 {
	k := []uint64{key}
	acc := []uint64{0}
	var block [8]byte
	for off := 0; off < len(msg); off += 8 {
		n := copy(block[:], msg[off:])
		clear(block[n:])
		acc = f.Mul(acc, k)
		acc[0] ^= binary.LittleEndian.Uint64(block[:])
	}
	acc = f.Mul(acc, k)
	acc[0] ^= uint64(len(msg))
	acc = f.Mul(acc, k)
	return acc[0]
}

// TestPolyHashMatchesReference is the known-answer test of the table
// form: for the zero key, the unit key and random keys, over random
// messages of every length from 0 to 299 bytes, so every tail length
// mod 8 comes up many times.
func TestPolyHashMatchesReference(t *testing.T) {
	f, err := NewField(64)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewSplitMix64(61)
	keys := []uint64{0, 1}
	for i := 0; i < 8; i++ {
		keys = append(keys, r.Uint64())
	}
	msg := make([]byte, 299)
	for _, key := range keys {
		h := NewPolyHash(key)
		for n := 0; n <= len(msg); n++ {
			r.Bytes(msg[:n])
			if got, want := h.Sum(msg[:n]), refPolyHash(f, key, msg[:n]); got != want {
				t.Fatalf("key %#x, %d-byte message: Sum %#x, reference %#x", key, n, got, want)
			}
		}
	}
}

// FuzzPolyHash checks the table form against the reference on
// arbitrary keys and messages.
func FuzzPolyHash(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte("a"))
	f.Add(^uint64(0), []byte("exactly8"))
	f.Add(uint64(0x8000000000000000), []byte("nine byte"))
	f.Add(uint64(0x123456789abcdef0), make([]byte, 300))
	field, err := NewField(64)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, key uint64, msg []byte) {
		if got, want := NewPolyHash(key).Sum(msg), refPolyHash(field, key, msg); got != want {
			t.Fatalf("key %#x, %d-byte message: Sum %#x, reference %#x", key, len(msg), got, want)
		}
	})
}

func TestPolyHashSumAllocs(t *testing.T) {
	h := NewPolyHash(rng.NewSplitMix64(3).Uint64())
	msg := make([]byte, 1027)
	var sum uint64
	if n := testing.AllocsPerRun(100, func() { sum ^= h.Sum(msg) }); n != 0 {
		t.Errorf("Sum allocates %.1f values per call, want 0", n)
	}
}

func BenchmarkPolyHashSum1KB(b *testing.B) {
	h := NewPolyHash(rng.NewSplitMix64(1).Uint64())
	msg := make([]byte, 1024)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum ^= h.Sum(msg)
	}
	_ = sum
}

// BenchmarkNewPolyHash is the table build each OTP SA and each MAC pays
// once.
func BenchmarkNewPolyHash(b *testing.B) {
	r := rng.NewSplitMix64(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewPolyHash(r.Uint64())
	}
}
