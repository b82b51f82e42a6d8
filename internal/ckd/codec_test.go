package ckd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/wirecodec"
)

func randCkdBig(r *rand.Rand) *big.Int {
	return new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
}

func randCkdName(r *rand.Rand) string {
	b := make([]byte, 1+r.Intn(8))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randCkdNames(r *rand.Rand) []string {
	out := make([]string, 1+r.Intn(4))
	for i := range out {
		out[i] = randCkdName(r)
	}
	return out
}

func randCkdMAC(r *rand.Rand) []byte {
	b := make([]byte, 32)
	r.Read(b)
	return b
}

// testExt is the causal extension the round-trip test stamps.
var testExt = &wirecodec.Ext{From: obs.EventRef{Node: "a#d0", Seq: 42}, HLC: obs.HLC{Wall: 1700000000000000, Logical: 3}}

// TestBodyCodecRoundTrip: decode(encode(x)) is x on every ckd protocol
// body, with and without a causal extension.
func TestBodyCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		entries := make(map[string]*big.Int)
		macs := make(map[string][]byte)
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			name := randCkdName(r)
			entries[name] = randCkdBig(r)
			macs[name] = randCkdMAC(r)
		}
		bodies := []any{
			&helloBody{
				Members: randCkdNames(r), GR1: randCkdBig(r), SenderPub: randCkdBig(r),
				TargetEpoch: r.Uint64() >> 8, MAC: randCkdMAC(r),
			},
			&respBody{
				Blinded: randCkdBig(r), SenderPub: randCkdBig(r),
				TargetEpoch: r.Uint64() >> 8, MAC: randCkdMAC(r),
			},
			&keyDistBody{
				Members: randCkdNames(r), Left: randCkdNames(r),
				Entries: entries, EntryMACs: macs,
				SenderPub: randCkdBig(r), TargetEpoch: r.Uint64() >> 8,
			},
		}
		for _, body := range bodies {
			for _, ext := range []*wirecodec.Ext{nil, testExt} {
				enc, err := encodeBody(body, ext)
				if err != nil {
					t.Fatalf("encode %T: %v", body, err)
				}
				got := reflect.New(reflect.TypeOf(body).Elem()).Interface()
				gotExt, err := decodeBody(enc, got)
				if err != nil {
					t.Fatalf("decode %T: %v", body, err)
				}
				if !reflect.DeepEqual(got, body) {
					t.Fatalf("%T round trip diverged:\nin:  %#v\nout: %#v", body, body, got)
				}
				if !reflect.DeepEqual(gotExt, ext) {
					t.Fatalf("%T extension diverged: got %#v want %#v", body, gotExt, ext)
				}
			}
		}
	}
}

// TestDecodeBodyRejects: retired formats and malformed preambles are
// errors the caller can classify, never panics or half-decoded values.
func TestDecodeBodyRejects(t *testing.T) {
	body := &respBody{Blinded: big.NewInt(5), TargetEpoch: 3, MAC: []byte{1, 2}}
	var gobFrame bytes.Buffer
	if err := gob.NewEncoder(&gobFrame).Encode(body); err != nil {
		t.Fatal(err)
	}
	enc, err := encodeBody(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"gob", gobFrame.Bytes(), wirecodec.ErrNotCodec},
		{"version 1", append([]byte{wirecodec.Magic, 0x01}, enc[3:]...), wirecodec.ErrBadVersion},
		{"unknown version", append([]byte{wirecodec.Magic, 0x7f}, enc[2:]...), wirecodec.ErrBadVersion},
		{"ext-len overruns frame", append([]byte{wirecodec.Magic, wirecodec.Version, 40}, enc[3:]...), wirecodec.ErrTruncated},
		{"empty", nil, wirecodec.ErrNotCodec},
	} {
		if _, err := decodeBody(tc.in, &respBody{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
