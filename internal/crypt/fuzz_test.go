package crypt

import (
	"bytes"
	"testing"
)

// FuzzSuiteRoundTrip checks that every suite round-trips arbitrary
// plaintext and that opening a sealed frame with a flipped byte fails.
func FuzzSuiteRoundTrip(f *testing.F) {
	f.Add([]byte("seed plaintext"), []byte("seed secret"))
	f.Add([]byte{}, []byte("k"))
	f.Add(bytes.Repeat([]byte{0xFF}, 300), []byte("long secret material here"))
	f.Fuzz(func(t *testing.T, pt, secret []byte) {
		if len(secret) == 0 {
			secret = []byte("x")
		}
		for _, name := range []string{SuiteBlowfish, SuiteAESCTR, SuiteNull} {
			s, err := NewSuite(name, secret, []byte("fuzz"))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			frame, err := s.Seal(pt)
			if err != nil {
				t.Fatalf("%s seal: %v", name, err)
			}
			got, err := s.Open(frame)
			if err != nil {
				t.Fatalf("%s open: %v", name, err)
			}
			if !bytes.Equal(got, pt) {
				t.Fatalf("%s: round trip mismatch", name)
			}
			if len(frame) > 0 {
				mutated := append([]byte(nil), frame...)
				mutated[len(mutated)/2] ^= 0x40
				if _, err := s.Open(mutated); err == nil {
					t.Fatalf("%s: tampered frame accepted", name)
				}
			}
		}
	})
}

// FuzzOpenGarbage feeds arbitrary bytes to Open: it must reject them
// without panicking.
func FuzzOpenGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xAB}, 128))
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, name := range []string{SuiteBlowfish, SuiteAESCTR, SuiteNull} {
			s, err := NewSuite(name, []byte("fuzz secret"), []byte("ctx"))
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := s.Open(frame); err == nil {
				// A random frame passing HMAC verification is
				// essentially impossible.
				t.Fatalf("%s accepted garbage frame as %q", name, pt)
			}
		}
	})
}
