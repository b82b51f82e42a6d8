package crypt

import (
	"bytes"
	"errors"
	"io"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func allSuites(t testing.TB, secret, context []byte) map[string]Suite {
	t.Helper()
	out := make(map[string]Suite)
	for _, name := range []string{SuiteBlowfish, SuiteAESCTR, SuiteNull} {
		s, err := NewSuite(name, secret, context)
		if err != nil {
			t.Fatalf("NewSuite(%s): %v", name, err)
		}
		out[name] = s
	}
	return out
}

func TestSealOpenRoundTrip(t *testing.T) {
	secret := []byte("the group secret value")
	for name, s := range allSuites(t, secret, []byte("grp/epoch1")) {
		for _, size := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 4096} {
			pt := bytes.Repeat([]byte{0xA5}, size)
			frame, err := s.Seal(pt)
			if err != nil {
				t.Fatalf("%s seal %d: %v", name, size, err)
			}
			got, err := s.Open(frame)
			if err != nil {
				t.Fatalf("%s open %d: %v", name, size, err)
			}
			if !bytes.Equal(got, pt) {
				t.Fatalf("%s: round trip mismatch at size %d", name, size)
			}
			if len(frame) > len(pt)+s.Overhead() {
				t.Fatalf("%s: frame exceeds declared overhead: %d > %d+%d",
					name, len(frame), len(pt), s.Overhead())
			}
		}
	}
}

func TestSameKeysAcrossMembers(t *testing.T) {
	// Two members with the same secret and context must interoperate.
	secret := []byte("shared group secret")
	ctx := []byte("group-a/epoch-3")
	a, err := NewSuite(SuiteBlowfish, secret, ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(SuiteBlowfish, secret, ctx)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := a.Seal([]byte("hello group"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Open(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello group" {
		t.Fatalf("got %q", got)
	}
}

func TestDifferentEpochKeysDiffer(t *testing.T) {
	secret := []byte("shared group secret")
	a, _ := NewSuite(SuiteBlowfish, secret, []byte("g/epoch-1"))
	b, _ := NewSuite(SuiteBlowfish, secret, []byte("g/epoch-2"))
	frame, err := a.Seal([]byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(frame); !errors.Is(err, ErrAuth) {
		t.Fatalf("cross-epoch open: got %v, want ErrAuth", err)
	}
}

func TestDifferentSecretsReject(t *testing.T) {
	ctx := []byte("g/epoch-1")
	for name := range allSuites(t, []byte("secret one"), ctx) {
		a, _ := NewSuite(name, []byte("secret one"), ctx)
		b, _ := NewSuite(name, []byte("secret two"), ctx)
		frame, err := a.Seal([]byte("confidential"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open(frame); !errors.Is(err, ErrAuth) {
			t.Fatalf("%s: wrong-secret open: got %v, want ErrAuth", name, err)
		}
	}
}

func TestTamperDetection(t *testing.T) {
	for name, s := range allSuites(t, []byte("secret"), []byte("ctx")) {
		frame, err := s.Seal([]byte("authentic payload"))
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range []int{0, len(frame) / 2, len(frame) - 1} {
			mutated := append([]byte(nil), frame...)
			mutated[pos] ^= 0x01
			if _, err := s.Open(mutated); !errors.Is(err, ErrAuth) {
				t.Errorf("%s: flip at %d: got %v, want ErrAuth", name, pos, err)
			}
		}
	}
}

func TestTruncatedFrames(t *testing.T) {
	for name, s := range allSuites(t, []byte("secret"), []byte("ctx")) {
		frame, err := s.Seal([]byte("some payload here"))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 8, len(frame) - 1} {
			if n > len(frame) {
				continue
			}
			if _, err := s.Open(frame[:n]); err == nil {
				t.Errorf("%s: truncation to %d accepted", name, n)
			}
		}
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	pt := bytes.Repeat([]byte("secret text "), 8)
	for _, name := range []string{SuiteBlowfish, SuiteAESCTR} {
		s, err := NewSuite(name, []byte("k"), []byte("c"))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := s.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(frame, pt[:12]) {
			t.Errorf("%s: ciphertext leaks plaintext", name)
		}
	}
}

func TestSealRandomizesIV(t *testing.T) {
	s, err := NewSuite(SuiteBlowfish, []byte("k"), []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := s.Seal([]byte("same message"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Seal([]byte("same message"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(f1, f2) {
		t.Fatal("two seals of the same message produced identical frames")
	}
}

func TestUnknownSuite(t *testing.T) {
	if _, err := NewSuite("rot13", []byte("k"), []byte("c")); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	if err := Register(SuiteBlowfish, newBlowfishCBC); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register("test-custom-suite", newNull); err != nil {
		t.Fatalf("fresh registration failed: %v", err)
	}
	found := false
	for _, n := range Suites() {
		if n == "test-custom-suite" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered suite missing from Suites()")
	}
}

func TestKDFDeterministic(t *testing.T) {
	a := NewKDF([]byte("s"), []byte("c"))
	b := NewKDF([]byte("s"), []byte("c"))
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	if _, err := io.ReadFull(a, ba); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("same (secret, context) produced different key streams")
	}
}

func TestKDFContextSeparation(t *testing.T) {
	a := NewKDF([]byte("s"), []byte("c1"))
	b := NewKDF([]byte("s"), []byte("c2"))
	ba := make([]byte, 64)
	bb := make([]byte, 64)
	io.ReadFull(a, ba)
	io.ReadFull(b, bb)
	if bytes.Equal(ba, bb) {
		t.Fatal("different contexts produced the same key stream")
	}
}

func TestKDFChunkedReadsMatch(t *testing.T) {
	// Reading 100 bytes at once must equal reading them in odd chunks.
	one := make([]byte, 100)
	io.ReadFull(NewKDF([]byte("s"), []byte("c")), one)
	k := NewKDF([]byte("s"), []byte("c"))
	var parts []byte
	for _, n := range []int{1, 7, 13, 32, 47} {
		buf := make([]byte, n)
		io.ReadFull(k, buf)
		parts = append(parts, buf...)
	}
	if !bytes.Equal(one, parts) {
		t.Fatal("chunked KDF reads diverge from a single read")
	}
}

// pad is the PKCS#7 oracle for unpad: it pads data to a full multiple of
// bs into a new slice (SealAppend pads in place in the frame).
func pad(data []byte, bs int) []byte {
	n := bs - len(data)%bs
	out := make([]byte, len(data)+n)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(n)
	}
	return out
}

func TestPadUnpadProperty(t *testing.T) {
	f := func(data []byte) bool {
		p := pad(data, 8)
		if len(p)%8 != 0 {
			return false
		}
		u, err := unpad(p, 8)
		return err == nil && bytes.Equal(u, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},                // not a multiple of block size
		{0, 0, 0, 0, 0, 0, 0, 0}, // pad byte 0
		{1, 1, 1, 1, 1, 1, 1, 9}, // pad byte > block size
		{1, 1, 1, 1, 1, 2, 3, 3}, // inconsistent padding
	}
	for i, c := range cases {
		if _, err := unpad(c, 8); err == nil {
			t.Errorf("case %d: unpad accepted invalid padding", i)
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	s, err := NewSuite(SuiteBlowfish, []byte("property secret"), []byte("ctx"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pt []byte) bool {
		frame, err := s.Seal(pt)
		if err != nil {
			return false
		}
		got, err := s.Open(frame)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSealOpenAllocs pins the per-frame allocation counts at 1 KiB. A
// fresh hmac.New costs five allocations, so the test fails if Seal or Open
// stops reusing the suite's pooled HMAC states; Blowfish-CBC allocates no
// more than the null suite, so it fails too if a per-message CBC wrapper
// comes back.
func TestSealOpenAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops a quarter of its puts under the race detector")
			}
		}
	}
	limits := map[string]struct{ seal, open float64 }{
		SuiteBlowfish: {1, 2},
		SuiteAESCTR:   {2, 3},
		SuiteNull:     {1, 2},
	}
	msg := make([]byte, 1024)
	for name, s := range allSuites(t, []byte("the group secret value"), []byte("grp/epoch1")) {
		frame, err := s.Seal(msg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seal := testing.AllocsPerRun(200, func() { _, _ = s.Seal(msg) })
		open := testing.AllocsPerRun(200, func() { _, _ = s.Open(frame) })
		if lim := limits[name]; seal > lim.seal || open > lim.open {
			t.Errorf("%s: Seal %v allocs (limit %v), Open %v allocs (limit %v)", name, seal, lim.seal, open, lim.open)
		}
	}
}

// TestSealOpenCounters checks the process-global throughput counters: one
// Seal and one Open raise crypt_seal_msgs and crypt_open_msgs by exactly 1.
func TestSealOpenCounters(t *testing.T) {
	s, err := NewSuite(SuiteAESCTR, []byte("the group secret value"), []byte("grp/epoch1"))
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (seal, open int64) {
		c := obs.Default.Snapshot().Counters
		return c["crypt_seal_msgs"], c["crypt_open_msgs"]
	}
	seal0, open0 := counters()
	frame, err := s.Seal([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(frame); err != nil {
		t.Fatal(err)
	}
	if seal, open := counters(); seal-seal0 != 1 || open-open0 != 1 {
		t.Errorf("crypt_seal_msgs +%d, crypt_open_msgs +%d; want +1 each", seal-seal0, open-open0)
	}
}

func BenchmarkSealBlowfish1K(b *testing.B) { benchSeal(b, SuiteBlowfish, 1024) }
func BenchmarkSealAESCTR1K(b *testing.B)   { benchSeal(b, SuiteAESCTR, 1024) }
func BenchmarkSealNull1K(b *testing.B)     { benchSeal(b, SuiteNull, 1024) }

func benchSeal(b *testing.B, name string, size int) {
	s, err := NewSuite(name, []byte("bench secret"), []byte("ctx"))
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenBlowfish1K(b *testing.B) {
	s, err := NewSuite(SuiteBlowfish, []byte("bench secret"), []byte("ctx"))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := s.Seal(make([]byte, 1024))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(frame); err != nil {
			b.Fatal(err)
		}
	}
}
