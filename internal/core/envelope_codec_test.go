package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kga"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Randomized envelopes avoid empty-but-non-nil containers: the secure
// layer never produces them.

func randEnvString(r *rand.Rand) string {
	b := make([]byte, r.Intn(10))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randEnvBytes(r *rand.Rand) []byte {
	if r.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, 1+r.Intn(48))
	r.Read(b)
	return b
}

func randEnvelope(r *rand.Rand) *envelope {
	e := &envelope{Kind: 1 + r.Intn(5)}
	switch e.Kind {
	case envAnnounce:
		ann := &announceBody{
			Name:   randEnvString(r),
			Epoch:  r.Uint64() >> uint(r.Intn(64)),
			Digest: randEnvBytes(r),
			Proto:  randEnvString(r),
		}
		if r.Intn(4) > 0 {
			ann.Pub = new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
		}
		for i, n := 0, r.Intn(5); i < n; i++ {
			ann.Members = append(ann.Members, randEnvString(r))
		}
		e.Ann = ann
	case envKGA:
		e.KGA = &kga.Message{
			Proto: randEnvString(r),
			Type:  r.Intn(16) - 4,
			From:  randEnvString(r),
			To:    randEnvString(r),
			Body:  randEnvBytes(r),
		}
	case envData:
		e.Epoch = r.Uint64() >> uint(r.Intn(64))
		e.Frame = randEnvBytes(r)
	}
	return e
}

// testExt is the causal extension the round-trip tests and the fuzz
// corpus stamp.
var testExt = &wirecodec.Ext{From: obs.EventRef{Node: "a#d00", Seq: 42}, HLC: obs.HLC{Wall: 1700000000000000, Logical: 3}}

// TestEnvelopeCodecRoundTrip: decode(encode(x)) is x on randomized
// envelopes, with and without a causal extension.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		e := randEnvelope(r)
		for _, ext := range []*wirecodec.Ext{nil, testExt} {
			enc, err := encodeEnvelope(e, ext)
			if err != nil {
				t.Fatalf("#%d: encode: %v", i, err)
			}
			got, gotExt, err := decodeEnvelope(enc)
			if err != nil {
				t.Fatalf("#%d: decode: %v (%#v)", i, err, e)
			}
			if !reflect.DeepEqual(got, e) {
				t.Fatalf("#%d: round trip diverged:\nin:  %#v\nout: %#v", i, e, got)
			}
			if !reflect.DeepEqual(gotExt, ext) {
				t.Fatalf("#%d: extension diverged: got %#v want %#v", i, gotExt, ext)
			}
		}
	}
}

// legacyEnvelope returns one frame in each retired format — gob, and the
// extension-less [Magic][0x01] preamble — kept in the fuzz corpus as
// must-reject seeds.
func legacyEnvelope(t testing.TB) (gobFrame, v1Frame []byte) {
	t.Helper()
	e := &envelope{Kind: envData, Epoch: 5, Frame: []byte("ciphertext-bytes")}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		t.Fatal(err)
	}
	enc, err := encodeEnvelope(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the (empty) extension block and stamp the old version byte.
	return buf.Bytes(), append([]byte{wirecodec.Magic, 0x01}, enc[3:]...)
}

// TestDecodeEnvelopeRejects: retired formats and malformed preambles are
// errors the caller can classify, never panics or half-decoded values.
func TestDecodeEnvelopeRejects(t *testing.T) {
	gobFrame, v1Frame := legacyEnvelope(t)
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"gob", gobFrame, wirecodec.ErrNotCodec},
		{"version 1", v1Frame, wirecodec.ErrBadVersion},
		{"unknown version", append([]byte{wirecodec.Magic, 0x7f, 0}, v1Frame[2:]...), wirecodec.ErrBadVersion},
		{"ext-len overruns frame", append([]byte{wirecodec.Magic, wirecodec.Version, 40}, v1Frame[2:]...), wirecodec.ErrTruncated},
		{"empty", nil, wirecodec.ErrNotCodec},
	} {
		if e, _, err := decodeEnvelope(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got (%v, %v), want %v", tc.name, e, err, tc.want)
		}
	}
}

// TestEnvelopeCodecRejectsGarbage: corrupted codec frames error out rather
// than panic or half-decode.
func TestEnvelopeCodecRejectsGarbage(t *testing.T) {
	e := &envelope{Kind: envData, Epoch: 7, Frame: []byte("payload")}
	enc, err := encodeEnvelope(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := decodeEnvelope(enc[:cut]); err == nil {
			// A truncation that still parses must at minimum not panic;
			// exact-consumption (Close) makes this impossible.
			t.Fatalf("truncated envelope (%d/%d bytes) decoded without error", cut, len(enc))
		}
	}
}
