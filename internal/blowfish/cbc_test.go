package blowfish

import (
	"bytes"
	"crypto/cipher"
	"math/rand"
	"testing"
)

// checkCBC runs EncryptCBC in place and DecryptCBC both into a fresh
// buffer and in place (dst == src). The oracle is crypto/cipher's CBC over
// the same Cipher: the ciphertext must match it byte for byte, and both
// decryptions must give pt back. pt must be whole blocks.
func checkCBC(t *testing.T, key, iv, pt []byte) {
	t.Helper()
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pt))
	cipher.NewCBCEncrypter(c, iv).CryptBlocks(want, pt)
	ivCopy := append([]byte(nil), iv...)

	got := append([]byte(nil), pt...)
	c.EncryptCBC(iv, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("EncryptCBC key %x iv %x len %d:\n got %x\nwant %x", key, iv, len(pt), got, want)
	}

	dec := make([]byte, len(got))
	c.DecryptCBC(iv, dec, got)
	if !bytes.Equal(dec, pt) {
		t.Fatalf("DecryptCBC key %x iv %x len %d:\n got %x\nwant %x", key, iv, len(pt), dec, pt)
	}
	c.DecryptCBC(iv, got, got)
	if !bytes.Equal(got, pt) {
		t.Fatalf("in-place DecryptCBC key %x iv %x len %d:\n got %x\nwant %x", key, iv, len(pt), got, pt)
	}
	if !bytes.Equal(iv, ivCopy) {
		t.Fatalf("CBC modified the iv: %x -> %x", ivCopy, iv)
	}
}

// TestCBCMatchesStdlib pins the fused CBC kernel to crypto/cipher's CBC
// over the same Cipher: random 4-56 byte keys, an all-zero IV for the
// first key and random IVs after it, every length from 0 to 64 blocks (the
// four-lane decrypt body and each one-to-three block tail) and one 8 KiB
// frame's 1025 blocks.
func TestCBCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := make([]int, 0, 66)
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1025)
	for k := 0; k < 20; k++ {
		key := make([]byte, 4+rng.Intn(53))
		rng.Read(key)
		iv := make([]byte, BlockSize)
		if k > 0 {
			rng.Read(iv)
		}
		for _, n := range lengths {
			pt := make([]byte, n*BlockSize)
			rng.Read(pt)
			checkCBC(t, key, iv, pt)
		}
	}
}

func TestCBCPanicsOnPartialBlocks(t *testing.T) {
	c, err := NewCipher([]byte("some key"))
	if err != nil {
		t.Fatal(err)
	}
	iv := make([]byte, BlockSize)
	for name, fn := range map[string]func(){
		"EncryptCBC partial":   func() { c.EncryptCBC(iv, make([]byte, 9)) },
		"DecryptCBC partial":   func() { c.DecryptCBC(iv, make([]byte, 16), make([]byte, 9)) },
		"DecryptCBC short dst": func() { c.DecryptCBC(iv, make([]byte, 8), make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzCBC checks EncryptCBC/DecryptCBC against the crypto/cipher CBC
// oracle for arbitrary keys, IVs and plaintexts (truncated to whole
// blocks).
func FuzzCBC(f *testing.F) {
	f.Add([]byte("16-byte fuzz key"), []byte("8 bytes!"), []byte("sixteen byte msg"))
	f.Add([]byte{1, 2, 3, 4}, make([]byte, 8), make([]byte, 40))
	f.Add(bytes.Repeat([]byte{0xff}, 56), []byte{0, 1, 2, 3, 4, 5, 6, 7}, bytes.Repeat([]byte{0xa5}, 8*37))
	f.Fuzz(func(t *testing.T, key, iv, pt []byte) {
		if len(key) < 4 || len(key) > 56 || len(iv) < BlockSize {
			return
		}
		checkCBC(t, key, iv[:BlockSize], pt[:len(pt)/BlockSize*BlockSize])
	})
}

func BenchmarkEncryptCBC8K(b *testing.B) { benchCBC(b, true) }
func BenchmarkDecryptCBC8K(b *testing.B) { benchCBC(b, false) }

// benchCBC times one 8 KiB frame's padded body: 1025 blocks.
func benchCBC(b *testing.B, encrypt bool) {
	c, err := NewCipher([]byte("benchmark key 16"))
	if err != nil {
		b.Fatal(err)
	}
	iv := make([]byte, BlockSize)
	buf := make([]byte, 1025*BlockSize)
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		if encrypt {
			c.EncryptCBC(iv, buf)
		} else {
			c.DecryptCBC(iv, buf, buf)
		}
	}
}
