package aesctr

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// impls are the two ways to key a Key, each reached directly so both
// are tested whichever one Init picks on this CPU.
var impls = []struct {
	name string
	init func(*Key, []byte) error
}{
	{"aesni", func(k *Key, key []byte) error { k.initAESNI(key); return nil }},
	{"std", (*Key).initStd},
}

func skipWithoutAESNI(tb testing.TB, impl string) {
	tb.Helper()
	if impl == "aesni" && !haveAESNI {
		tb.Skip("CPU lacks AES-NI")
	}
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func counter(hi, lo uint64) *[BlockSize]byte {
	var iv [BlockSize]byte
	binary.BigEndian.PutUint64(iv[:], hi)
	binary.BigEndian.PutUint64(iv[8:], lo)
	return &iv
}

// reference is crypto/cipher's CTR over crypto/aes.
func reference(key []byte, iv *[BlockSize]byte, src []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	out := make([]byte, len(src))
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, src)
	return out
}

// fips197Key is the cipher key of FIPS-197 Appendix A.1 and of
// SP 800-38A's AES-128 examples.
var fips197Key = mustHex("2b7e151628aed2a6abf7158809cf4f3c")

// TestExpandKeyFIPS197 checks the AES-NI key expansion word for word
// against FIPS-197 Appendix A.1, w[0] through w[43].
func TestExpandKeyFIPS197(t *testing.T) {
	skipWithoutAESNI(t, "aesni")
	want := mustHex("" +
		"2b7e151628aed2a6abf7158809cf4f3c" +
		"a0fafe1788542cb123a339392a6c7605" +
		"f2c295f27a96b9435935807a7359f67f" +
		"3d80477d4716fe3e1e237e446d7a883b" +
		"ef44a541a8525b7fb671253bdb0bad00" +
		"d4d1c6f87c839d87caf2b8bc11f915bc" +
		"6d88a37a110b3efddbf98641ca0093fd" +
		"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
		"ead27321b58dbad2312bf5607f8d292f" +
		"ac7766f319fadc2128d12941575c006e" +
		"d014f9a8c9ee2589e13f0cc8b6630ca6")
	var k Key
	k.initAESNI(fips197Key)
	for r := 0; r < 11; r++ {
		got, w := k.rk[r*BlockSize:(r+1)*BlockSize], want[r*BlockSize:(r+1)*BlockSize]
		if !bytes.Equal(got, w) {
			t.Errorf("round key %d: %x, want %x", r, got, w)
		}
	}
}

// TestCTRSP80038A checks both implementations against SP 800-38A
// F.5.1, CTR-AES128.Encrypt: four blocks in one call, out of place and
// in place.
func TestCTRSP80038A(t *testing.T) {
	iv := (*[BlockSize]byte)(mustHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
	plain := mustHex("" +
		"6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")
	want := mustHex("" +
		"874d6191b620e3261bef6864990db6ce" +
		"9806f66b7970fdff8617187bb9fffdff" +
		"5ae4df3edbd5d35e5b4f09020db03eab" +
		"1e031dda2fbe03d1792170a0f3009cee")
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			skipWithoutAESNI(t, impl.name)
			var k Key
			if err := impl.init(&k, fips197Key); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(plain))
			k.XORKeyStream(got, plain, iv)
			if !bytes.Equal(got, want) {
				t.Errorf("out of place: %x, want %x", got, want)
			}
			buf := bytes.Clone(plain)
			k.XORKeyStream(buf, buf, iv)
			if !bytes.Equal(buf, want) {
				t.Errorf("in place: %x, want %x", buf, want)
			}
		})
	}
}

// TestInitPicksAESNIWhereAvailable checks the start-up choice: a Key
// from Init carries a crypto/aes block exactly when the CPU lacks
// AES-NI.
func TestInitPicksAESNIWhereAvailable(t *testing.T) {
	var k Key
	if err := k.Init(fips197Key); err != nil {
		t.Fatal(err)
	}
	if (k.block == nil) != haveAESNI {
		t.Fatalf("Init: fallback %v on a CPU with AES-NI %v", k.block != nil, haveAESNI)
	}
}

// TestInitRejectsOtherKeySizes: the package is AES-128 only.
func TestInitRejectsOtherKeySizes(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		var k Key
		if err := k.Init(make([]byte, n)); err == nil {
			t.Errorf("Init accepted a %d-byte key", n)
		}
	}
}

// TestAllocs pins the AES-NI path at zero allocations, for key setup
// and for keystreams at 0 bytes, at the smallest ESP inner packet and
// at a full-size one.
func TestAllocs(t *testing.T) {
	skipWithoutAESNI(t, "aesni")
	var k Key
	if a := testing.AllocsPerRun(100, func() { k.initAESNI(fips197Key) }); a != 0 {
		t.Errorf("key setup: %.1f allocs, want 0", a)
	}
	iv := counter(1, 2)
	src := pattern(1416, 3)
	dst := make([]byte, len(src))
	for _, n := range []int{0, 80, 1416} {
		if a := testing.AllocsPerRun(100, func() { k.XORKeyStream(dst, src[:n], iv) }); a != 0 {
			t.Errorf("%d-byte XORKeyStream: %.1f allocs, want 0", n, a)
		}
	}
}

// FuzzCTR checks that, for any key, counter block and length up to
// 1,500 bytes, out of place or in place, both implementations equal
// crypto/cipher's CTR and write nothing past len(src). The seeds sit on
// the kernel's block and 128-byte group boundaries, at a carry out of
// the counter's low 64 bits and at a wrap of all 128.
func FuzzCTR(f *testing.F) {
	ivs := []*[BlockSize]byte{
		counter(0, 0),
		counter(7, ^uint64(0)-2),
		counter(^uint64(0), ^uint64(0)-1),
	}
	for _, iv := range ivs {
		for _, n := range []uint16{0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1416, 1500} {
			f.Add(fips197Key, iv[:], n, n%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, keyIn, ivIn []byte, n uint16, inPlace bool) {
		key := make([]byte, KeySize)
		copy(key, keyIn)
		var iv [BlockSize]byte
		copy(iv[:], ivIn)
		src := pattern(int(n)%1501, byte(n))
		want := reference(key, &iv, src)
		for _, impl := range impls {
			if impl.name == "aesni" && !haveAESNI {
				continue
			}
			var k Key
			if err := impl.init(&k, key); err != nil {
				t.Fatal(err)
			}
			// A guard band after the output catches a write past
			// len(src).
			buf := bytes.Repeat([]byte{0xEE}, len(src)+2*BlockSize)
			in := src
			if inPlace {
				copy(buf, src)
				in = buf[:len(src)]
			}
			k.XORKeyStream(buf, in, &iv)
			if !bytes.Equal(buf[:len(src)], want) {
				t.Fatalf("%s: key %x, iv %x, %d B, in place %v: keystream differs from cipher.NewCTR",
					impl.name, key, iv, len(src), inPlace)
			}
			for i, b := range buf[len(src):] {
				if b != 0xEE {
					t.Fatalf("%s: %d B: wrote byte %d past the output", impl.name, len(src), i)
				}
			}
		}
	})
}

// BenchmarkXORKeyStream times one keystream from Init's Key over the
// inner packets of BenchmarkGateway_SealOpenAES's four payloads: 80,
// 192, 528 and 1416 bytes. BenchmarkXORKeyStreamStd is the
// crypto/cipher fallback on the same inputs.
func BenchmarkXORKeyStream(b *testing.B)    { benchXOR(b, (*Key).Init) }
func BenchmarkXORKeyStreamStd(b *testing.B) { benchXOR(b, (*Key).initStd) }

func benchXOR(b *testing.B, init func(*Key, []byte) error) {
	for _, n := range []int{80, 192, 528, 1416} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var k Key
			if err := init(&k, fips197Key); err != nil {
				b.Fatal(err)
			}
			iv := counter(0x5eed, 1<<32)
			src := pattern(n, 1)
			dst := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for b.Loop() {
				k.XORKeyStream(dst, src, iv)
			}
		})
	}
}
