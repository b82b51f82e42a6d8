package flush

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/wirecodec"
)

// testExt is the causal extension the round-trip tests stamp.
var testExt = &wirecodec.Ext{From: obs.EventRef{Node: "d1", Seq: 42}, HLC: obs.HLC{Wall: 1700000000000000, Logical: 3}}

// TestFlushMsgCodecRoundTrip: decode(encode(x)) is x on randomized flush
// frames, with and without a causal extension.
func TestFlushMsgCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		m := &flushMsg{
			Kind: 1 + r.Intn(2),
			View: spread.GroupViewID{
				DaemonView: spread.ViewID{Epoch: r.Uint64() >> uint(r.Intn(64)), Coord: "d0"},
				Seq:        r.Uint64() >> uint(r.Intn(64)),
			},
			Service: spread.Service(r.Intn(4)),
		}
		if r.Intn(3) > 0 {
			m.Data = make([]byte, 1+r.Intn(100))
			r.Read(m.Data)
		}
		for _, ext := range []*wirecodec.Ext{nil, testExt} {
			enc, err := encodeMsg(m, ext)
			if err != nil {
				t.Fatalf("#%d: encode: %v", i, err)
			}
			got, gotExt, err := decodeMsg(enc)
			if err != nil {
				t.Fatalf("#%d: decode: %v", i, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("#%d: round trip diverged:\nin:  %#v\nout: %#v", i, m, got)
			}
			if !reflect.DeepEqual(gotExt, ext) {
				t.Fatalf("#%d: extension diverged: got %#v want %#v", i, gotExt, ext)
			}
		}
	}
}

// TestDecodeMsgRejects: retired formats and malformed preambles are errors
// the caller can classify, never panics or half-decoded values.
func TestDecodeMsgRejects(t *testing.T) {
	m := &flushMsg{Kind: wireFlushOK, View: spread.GroupViewID{Seq: 9}}
	var gobFrame bytes.Buffer
	if err := gob.NewEncoder(&gobFrame).Encode(m); err != nil {
		t.Fatal(err)
	}
	enc, err := encodeMsg(m, nil)
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
		if got, _, err := decodeMsg(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got (%v, %v), want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestFlushMsgCodecTruncation: every truncation of a valid frame fails
// cleanly (exact-consumption decoding).
func TestFlushMsgCodecTruncation(t *testing.T) {
	m := &flushMsg{
		Kind:    wireData,
		View:    spread.GroupViewID{DaemonView: spread.ViewID{Epoch: 3, Coord: "d1"}, Seq: 9},
		Service: spread.Agreed,
		Data:    []byte("payload"),
	}
	enc, err := encodeMsg(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := decodeMsg(enc[:cut]); err == nil {
			t.Fatalf("truncated flush frame (%d/%d bytes) decoded without error", cut, len(enc))
		}
	}
}
