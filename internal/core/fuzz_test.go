package core

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/kga"
	"repro/internal/wirecodec"
)

// corpusEnvelope returns one representative encoded frame per secure-layer
// envelope kind, used both as the fuzz seed corpus and by the checked-in
// corpus generator.
func corpusEnvelope(t testing.TB) [][]byte {
	t.Helper()
	envs := []*envelope{
		{Kind: envAnnounce, Ann: &announceBody{
			Name:    "a#d00",
			Pub:     big.NewInt(0).SetBytes([]byte{0x1f, 0x83, 0x4a, 0x90}),
			Epoch:   5,
			Digest:  []byte{0xde, 0xad, 0xbe, 0xef},
			Members: []string{"a#d00", "b#d01"},
			Proto:   "cliques",
		}},
		{Kind: envKGA, KGA: &kga.Message{
			Proto: "cliques", Type: 2, From: "a#d00", To: "b#d01",
			Body: []byte("partial-context"),
		}},
		{Kind: envData, Epoch: 5, Frame: []byte("ciphertext-bytes")},
		{Kind: envRefreshStart},
		{Kind: envRefreshRequest},
	}
	// Each envelope seeds two encodings, without and with the causal
	// extension; the two retired-format frames come last.
	var out [][]byte
	for _, e := range envs {
		for _, ext := range []*wirecodec.Ext{nil, testExt} {
			enc, err := encodeEnvelope(e, ext)
			if err != nil {
				t.Fatalf("encode corpus envelope kind %d: %v", e.Kind, err)
			}
			out = append(out, enc)
		}
	}
	gobFrame, v1Frame := legacyEnvelope(t)
	return append(out, gobFrame, v1Frame)
}

// FuzzEnvelopeDecode feeds arbitrary bytes to the secure layer's envelope
// decoder — the exact path a hostile group member could reach by
// multicasting garbage through the flush layer. The decoder must never
// panic; any envelope it accepts must survive a re-encode/re-decode round
// trip exactly.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, b := range corpusEnvelope(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return // bound allocation, matching daemon frame expectations
		}
		e, _, err := decodeEnvelope(raw)
		if err != nil {
			return // rejected frames are fine; panics are not
		}
		enc, err := encodeEnvelope(e, nil)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		e2, _, err := decodeEnvelope(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("envelope round trip not identity:\nfirst:  %#v\nsecond: %#v", e, e2)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Gated so normal runs never touch the tree:
//
//	WRITE_FUZZ_CORPUS=1 go test ./internal/core -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzEnvelopeDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range corpusEnvelope(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
