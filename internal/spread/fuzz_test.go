package spread

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// corpusWire returns one representative encoded frame per daemon wire kind,
// used both as the fuzz seed corpus and by the checked-in-corpus generator.
func corpusWire(t testing.TB) [][]byte {
	t.Helper()
	v := ViewID{Epoch: 3, Coord: "d00"}
	data := dataMsg{
		View: v, Sender: "d01", Seq: 2, LTS: 11,
		P: payload{
			Kind: payClientData, Group: "g", Member: "a#d01",
			Service: Agreed, Data: []byte("hello"),
		},
	}
	msgs := []*wireMsg{
		{Kind: kindHeartbeat, HB: &hbMsg{View: v, LTS: 17, Stable: 9, Seq: 4}},
		{Kind: kindData, Data: &data},
		{Kind: kindData, Data: &dataMsg{
			View: v, Sender: "d00", Seq: 1, LTS: 5,
			P: payload{Kind: payGroupJoin, Group: "g", Member: "b#d00"},
		}},
		{Kind: kindData, Data: &dataMsg{
			View: v, Sender: "d02", Seq: 3, LTS: 12,
			P: payload{
				Kind: payGroupState,
				State: []stateEntry{{
					Group: "g", Member: "a#d01", Daemon: "d01",
					Stamp: Stamp{Epoch: 3, LTS: 1, Name: "a#d01"}, PrevView: v, ViewSeq: 2,
				}},
			},
		}},
		{Kind: kindPropose, Prop: &proposeMsg{Round: 7}},
		{Kind: kindSync, Sync: &syncMsg{Round: 7, Members: []string{"d00", "d01"}}},
		{Kind: kindSyncAck, SyncAck: &syncAckMsg{Round: 7, OldView: v, Msgs: []dataMsg{data}}},
		{Kind: kindInstall, Install: &installMsg{
			Round:     7,
			View:      View{ID: ViewID{Epoch: 4, Coord: "d00"}, Members: []string{"d00", "d01"}},
			Recovered: map[ViewID][]dataMsg{v: {data}},
		}},
		{Kind: kindNack, Nack: &nackMsg{View: v, Sender: "d01", From: 2, To: 5}},
	}
	// Each message seeds two encodings, without and with the causal
	// extension; the two retired-format frames come last.
	var out [][]byte
	for _, m := range msgs {
		for _, ext := range []*wirecodec.Ext{nil, corpusExt()} {
			enc, err := encodeWire(nil, m, ext)
			if err != nil {
				t.Fatalf("encode corpus message kind %d: %v", m.Kind, err)
			}
			out = append(out, enc)
		}
	}
	gobFrame, v1Frame := legacyWire(t)
	return append(out, gobFrame, v1Frame)
}

// corpusExt is the deterministic causal extension stamped on the corpus
// frames and used by the ext round-trip tests.
func corpusExt() *wirecodec.Ext {
	return &wirecodec.Ext{
		From: obs.EventRef{Node: "d01", Seq: 42},
		HLC:  obs.HLC{Wall: 1700000000000000, Logical: 3},
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to the daemon wire decoder. The
// decoder must never panic; any frame it accepts must survive a
// re-encode/re-decode round trip exactly.
func FuzzWireRoundTrip(f *testing.F) {
	for _, b := range corpusWire(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return // bound allocation, matching daemon frame expectations
		}
		if m, _, err := decodeWire(raw); err == nil {
			checkWireCodecIdentity(t, m)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. Gated so normal runs never touch the tree:
//
//	WRITE_FUZZ_CORPUS=1 go test ./internal/spread -run 'TestWrite.*Corpus'
func TestWriteFuzzCorpus(t *testing.T) {
	writeCorpus(t, "FuzzWireRoundTrip", corpusWire(t))
}

// writeCorpus writes frames as a fuzz target's checked-in seed-NN files.
func writeCorpus(t *testing.T, target string, frames [][]byte) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the checked-in corpus")
	}
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, b := range frames {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
