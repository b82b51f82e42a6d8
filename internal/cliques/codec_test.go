package cliques

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

func randBig(r *rand.Rand) *big.Int {
	return new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), 512))
}

func randName(r *rand.Rand) string {
	b := make([]byte, 1+r.Intn(8))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randNames(r *rand.Rand) []string {
	out := make([]string, 1+r.Intn(4))
	for i := range out {
		out[i] = randName(r)
	}
	return out
}

func randMAC(r *rand.Rand) []byte {
	b := make([]byte, 32)
	r.Read(b)
	return b
}

func randBigMap(r *rand.Rand) map[string]*big.Int {
	m := make(map[string]*big.Int)
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		m[randName(r)] = randBig(r)
	}
	return m
}

func randMACMap(r *rand.Rand) map[string][]byte {
	m := make(map[string][]byte)
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		m[randName(r)] = randMAC(r)
	}
	return m
}

// testExt is the causal extension the round-trip test stamps.
var testExt = &wirecodec.Ext{From: obs.EventRef{Node: "a#d0", Seq: 42}, HLC: obs.HLC{Wall: 1700000000000000, Logical: 3}}

// TestBodyCodecRoundTrip: decode(encode(x)) is x on every cliques protocol
// body, with and without a causal extension.
func TestBodyCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		bodies := []any{
			&joinSeedBody{
				OldMembers: randNames(r), Joiner: randName(r), Partials: randBigMap(r),
				PNew: randBig(r), SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8, MAC: randMAC(r),
			},
			&joinBcastBody{
				Members: randNames(r), Entries: randBigMap(r), EntryMACs: randMACMap(r),
				SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8,
			},
			&leaveBcastBody{
				Members: randNames(r), Left: randNames(r), Refresh: r.Intn(2) == 0,
				Entries: randBigMap(r), EntryMACs: randMACMap(r),
				TargetEpoch: r.Uint64() >> 8, MAC: randMAC(r),
			},
			&mergeChainBody{
				Members: randNames(r), Merged: randNames(r), Pos: r.Intn(10),
				U: randBig(r), SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8, MAC: randMAC(r),
			},
			&mergeFactorReqBody{
				Members: randNames(r), Merged: randNames(r), U: randBig(r),
				SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8, MACs: randMACMap(r),
			},
			&mergeFactorRespBody{
				W: randBig(r), SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8, MAC: randMAC(r),
			},
			&mergeBcastBody{
				Members: randNames(r), Entries: randBigMap(r), EntryMACs: randMACMap(r),
				SenderPub: randBig(r), TargetEpoch: r.Uint64() >> 8,
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
	body := &mergeFactorRespBody{W: big.NewInt(5), TargetEpoch: 3, MAC: []byte{1, 2}}
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
		if _, err := decodeBody(tc.in, &mergeFactorRespBody{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
