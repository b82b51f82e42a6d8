package spread

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wirecodec"
)

// ---- randomized message generator ----
//
// Containers are generated nil or with >= 1 element, never empty non-nil:
// shapes the daemon never produces.

func randString(r *rand.Rand) string {
	n := r.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randBytes(r *rand.Rand) []byte {
	if r.Intn(3) == 0 {
		return nil
	}
	b := make([]byte, 1+r.Intn(64))
	r.Read(b)
	return b
}

func randViewID(r *rand.Rand) ViewID {
	return ViewID{Epoch: r.Uint64() >> uint(r.Intn(64)), Coord: randString(r)}
}

func randDataMsg(r *rand.Rand) dataMsg {
	m := dataMsg{
		View:   randViewID(r),
		Sender: randString(r),
		Seq:    r.Uint64() >> uint(r.Intn(64)),
		LTS:    r.Uint64() >> uint(r.Intn(64)),
		P: payload{
			Kind:       payloadKind(1 + r.Intn(4)),
			Group:      randString(r),
			Member:     randString(r),
			DstMember:  randString(r),
			Service:    Service(r.Intn(4)),
			Data:       randBytes(r),
			Disconnect: r.Intn(2) == 0,
		},
	}
	if r.Intn(3) == 0 {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			m.P.State = append(m.P.State, stateEntry{
				Group:  randString(r),
				Member: randString(r),
				Daemon: randString(r),
				Stamp: Stamp{
					Epoch: uint64(r.Intn(100)), LTS: uint64(r.Intn(1000)),
					Sub: uint64(r.Intn(10)), Name: randString(r),
				},
				PrevView: randViewID(r),
				ViewSeq:  uint64(r.Intn(1000)),
			})
		}
	}
	return m
}

func randWireMsg(r *rand.Rand) *wireMsg {
	kind := msgKind(1 + r.Intn(int(kindMax)-1))
	m := &wireMsg{Kind: kind}
	if r.Intn(8) == 0 {
		return m // nil body: dropped by handlers but must still round-trip
	}
	switch kind {
	case kindHeartbeat:
		m.HB = &hbMsg{View: randViewID(r), LTS: r.Uint64(), Stable: r.Uint64(), Seq: r.Uint64()}
	case kindData:
		d := randDataMsg(r)
		m.Data = &d
	case kindPropose:
		m.Prop = &proposeMsg{Round: r.Uint64() >> uint(r.Intn(64))}
	case kindSync:
		s := &syncMsg{Round: r.Uint64() >> uint(r.Intn(64))}
		for i, n := 0, r.Intn(4); i < n; i++ {
			s.Members = append(s.Members, randString(r))
		}
		m.Sync = s
	case kindSyncAck:
		a := &syncAckMsg{Round: r.Uint64() >> uint(r.Intn(64)), OldView: randViewID(r)}
		for i, n := 0, r.Intn(3); i < n; i++ {
			a.Msgs = append(a.Msgs, randDataMsg(r))
		}
		m.SyncAck = a
	case kindInstall:
		inst := &installMsg{
			Round: r.Uint64() >> uint(r.Intn(64)),
			View:  View{ID: randViewID(r)},
		}
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			inst.View.Members = append(inst.View.Members, randString(r))
		}
		if r.Intn(2) == 0 {
			inst.Recovered = map[ViewID][]dataMsg{}
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				msgs := make([]dataMsg, 1+r.Intn(2))
				for j := range msgs {
					msgs[j] = randDataMsg(r)
				}
				inst.Recovered[randViewID(r)] = msgs
			}
		}
		m.Install = inst
	case kindNack:
		m.Nack = &nackMsg{View: randViewID(r), Sender: randString(r), From: r.Uint64(), To: r.Uint64()}
	}
	return m
}

// TestWireCodecRoundTrip requires decode(encode(x)) to be x on randomized
// messages, with and without a causal extension, and the extension to
// come back as sent.
func TestWireCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkWireCodecIdentity(t, randWireMsg(r))
	}
}

// TestEncodeWireRejectsUnknownKinds: a kind outside the vocabulary is an
// encode error, never a frame in some other format.
func TestEncodeWireRejectsUnknownKinds(t *testing.T) {
	for _, kind := range []msgKind{0, -3, kindMax, kindMax + 7} {
		if enc, err := encodeWire(nil, &wireMsg{Kind: kind}, nil); err == nil {
			t.Errorf("kind %d: encoded to %x, want error", kind, enc)
		}
	}
}

// TestWireFrameSizes pins the encoded size of each representative wire
// message. Sizes are deterministic codec properties, so a wire-format
// change must edit this table on purpose.
func TestWireFrameSizes(t *testing.T) {
	want := map[string]int{
		"heartbeat": 21,
		"data":      1074,
		"propose":   6,
		"sync":      37,
		"syncack":   1087,
		"install":   1120,
		"nack":      28,
	}
	msgs := wireBenchMessages()
	if len(msgs) != len(want) {
		t.Fatalf("%d representative messages, table has %d", len(msgs), len(want))
	}
	for _, m := range msgs {
		enc, err := encodeWire(nil, m, nil)
		if err != nil {
			t.Fatalf("%s: %v", kindName(m.Kind), err)
		}
		if got := len(enc); got != want[kindName(m.Kind)] {
			t.Errorf("%s frame: %d bytes, want %d", kindName(m.Kind), got, want[kindName(m.Kind)])
		}
	}
}

// legacyWire returns one frame in each retired format — gob, and the
// extension-less [Magic][0x01] preamble — kept in the fuzz corpora as
// must-reject seeds.
func legacyWire(t testing.TB) (gobFrame, v1Frame []byte) {
	t.Helper()
	m := &wireMsg{Kind: kindPropose, Prop: &proposeMsg{Round: 7}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	enc, err := encodeWire(nil, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the (empty) extension block and stamp the old version byte.
	return buf.Bytes(), append([]byte{wirecodec.Magic, 0x01}, enc[3:]...)
}

// TestDecodeWireRejects: retired formats, malformed preambles and kinds
// outside the vocabulary are errors the caller can classify, never panics
// or half-decoded values.
func TestDecodeWireRejects(t *testing.T) {
	gobFrame, v1Frame := legacyWire(t)
	// kindFrame is a well-formed, bodiless frame of the given kind.
	kindFrame := func(k msgKind) []byte {
		return append(wirecodec.AppendInt(wirecodec.AppendPreambleExt(nil, nil), int64(k)), 0)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want error // nil: an unknown-kind error
	}{
		{"gob", gobFrame, wirecodec.ErrNotCodec},
		{"version 1", v1Frame, wirecodec.ErrBadVersion},
		{"unknown version", []byte{wirecodec.Magic, 0x7f, 0, 2, 0}, wirecodec.ErrBadVersion},
		{"ext-len overruns frame", []byte{wirecodec.Magic, wirecodec.Version, 40, 2, 0}, wirecodec.ErrTruncated},
		{"empty", nil, wirecodec.ErrNotCodec},
		{"kind kindMax", kindFrame(kindMax), nil},
		// 10 was kindNack before the daemon-keying kinds were deleted.
		{"kind 10", kindFrame(10), nil},
	} {
		m, _, err := decodeWire(tc.in)
		ok := errors.Is(err, tc.want)
		if tc.want == nil {
			ok = err != nil && strings.Contains(err.Error(), "unknown kind")
		}
		if !ok {
			t.Errorf("%s: got (%v, %v), want %v", tc.name, m, err, tc.want)
		}
	}
}

// FuzzWireCodec targets the body decoder specifically: arbitrary bytes
// after a forced preamble (so the leading bytes parse as the extension
// block) must never panic, and any accepted frame must re-encode/decode
// as an exact identity.
func FuzzWireCodec(f *testing.F) {
	for _, b := range corpusWire(f) {
		f.Add(b[2:]) // strip the preamble the fuzz body re-adds
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		frame := append([]byte{wirecodec.Magic, wirecodec.Version}, raw...)
		if m, _, err := decodeWire(frame); err == nil {
			checkWireCodecIdentity(t, m)
		}
	})
}

// checkWireCodecIdentity asserts the codec invariants on an accepted
// message: re-encode/decode is an exact identity, and the same message
// encoded with a causal extension decodes identically and returns the
// extension.
func checkWireCodecIdentity(t *testing.T, m *wireMsg) {
	t.Helper()
	enc, err := encodeWire(nil, m, nil)
	if err != nil {
		t.Fatalf("accepted frame failed to re-encode: %v (%#v)", err, m)
	}
	m2, ext2, err := decodeWire(enc)
	if err != nil {
		t.Fatalf("re-encoded frame failed to decode: %v", err)
	}
	if ext2 != nil {
		t.Fatalf("extension materialized out of a stampless frame: %#v", ext2)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("codec round trip not identity:\nfirst:  %#v\nsecond: %#v", m, m2)
	}
	ext := corpusExt()
	encExt, err := encodeWire(nil, m, ext)
	if err != nil {
		t.Fatalf("ext encode failed: %v", err)
	}
	m3, gotExt, err := decodeWire(encExt)
	if err != nil {
		t.Fatalf("ext frame failed to decode: %v", err)
	}
	if gotExt == nil || *gotExt != *ext {
		t.Fatalf("extension did not round-trip: got %#v want %#v", gotExt, ext)
	}
	if !reflect.DeepEqual(m, m3) {
		t.Fatalf("ext frame decoded differently:\nplain: %#v\next:   %#v", m, m3)
	}
}

// TestWriteWireCodecCorpus regenerates the checked-in FuzzWireCodec seeds
// (the FuzzWireRoundTrip seeds with their first two bytes stripped). Same
// gate as TestWriteFuzzCorpus.
func TestWriteWireCodecCorpus(t *testing.T) {
	frames := corpusWire(t)
	for i := range frames {
		frames[i] = frames[i][2:]
	}
	writeCorpus(t, "FuzzWireCodec", frames)
}

// ---- benchmarks: the steady-state frame mix ----

// benchFrameMsgs is the per-iteration work unit: one heartbeat and one
// 1 KiB data message, the two frames that dominate a loaded daemon.
func benchFrameMsgs() []*wireMsg {
	v := ViewID{Epoch: 3, Coord: "daemon-00"}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	return []*wireMsg{
		{Kind: kindHeartbeat, HB: &hbMsg{View: v, LTS: 171717, Stable: 171000, Seq: 1234}},
		{Kind: kindData, Data: &dataMsg{
			View: v, Sender: "daemon-01", Seq: 4242, LTS: 171718,
			P: payload{Kind: payClientData, Group: "bench", Member: "m#daemon-01", Service: Agreed, Data: data},
		}},
	}
}

func BenchmarkWireEncode(b *testing.B) {
	msgs := benchFrameMsgs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			buf, err := encodeWire(wirecodec.GetBuf(), m, nil)
			if err != nil {
				b.Fatal(err)
			}
			wirecodec.PutBuf(buf)
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	var encs [][]byte
	for _, m := range benchFrameMsgs() {
		enc, err := encodeWire(nil, m, nil)
		if err != nil {
			b.Fatal(err)
		}
		encs = append(encs, enc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range encs {
			if _, _, err := decodeWire(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}
