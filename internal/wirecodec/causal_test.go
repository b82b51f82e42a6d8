package wirecodec

import (
	"testing"

	"repro/internal/kga"
	"repro/internal/obs"
)

// TestCausalEdgePrimitive pins the one causal-edge protocol: a send/observe
// pair records the parent edge with the receive stamped after the send, a
// clock-only stamp merges the clock and records nothing, and a missing
// recorder or extension is a no-op everywhere.
func TestCausalEdgePrimitive(t *testing.T) {
	tmpl := obs.Event{Comp: "spread", View: "3@d1", Detail: "kind=join"}

	// No recorder: no stamp, and observing is harmless.
	for _, sc := range []*obs.Scope{nil, {Node: "bare"}} {
		if SendExt(sc, tmpl) != nil || ClockExt(sc) != nil {
			t.Fatalf("scope %+v without a recorder produced an ext", sc)
		}
		stamped := &Ext{From: obs.EventRef{Node: "a", Seq: 1}, HLC: obs.HLC{Wall: 1}}
		if stamped.Observe(sc, tmpl, "a") != nil || stamped.Merge(sc) != nil {
			t.Fatalf("scope %+v without a recorder returned a parent", sc)
		}
	}
	a, b := obs.NewScope("a", "test"), obs.NewScope("b", "test")
	if p := (*Ext)(nil).Observe(b, tmpl, "a"); p != nil || b.Rec.Total() != 0 {
		t.Fatalf("nil ext: parent %v, %d events", p, b.Rec.Total())
	}

	// Clock-only: the sender's clock runs an hour ahead; the receiver
	// catches up without recording anything on either side.
	a.Rec.Clock().SetOffset(3600e9)
	clk := ClockExt(a)
	if clk == nil || clk.From.Seq != 0 || clk.HLC.IsZero() {
		t.Fatalf("clock ext = %+v", clk)
	}
	if p := clk.Observe(b, tmpl, "a"); p != nil {
		t.Fatalf("clock-only ext returned parent %v", p)
	}
	if a.Rec.Total() != 0 || b.Rec.Total() != 0 {
		t.Fatalf("clock-only stamp recorded events: a=%d b=%d", a.Rec.Total(), b.Rec.Total())
	}
	if now := b.Rec.Clock().Now(); now.Before(clk.HLC) {
		t.Fatalf("receiver clock %v did not merge %v", now, clk.HLC)
	}

	// Send/observe pair.
	ext := SendExt(a, tmpl)
	parent := ext.Observe(b, tmpl, "a")
	send, recv := a.Rec.Events()[0], b.Rec.Events()[0]
	if send.Kind != "wire-send" || send.Comp != "spread" || send.View != "3@d1" || send.Detail != "kind=join" {
		t.Errorf("send event = %+v", send)
	}
	if ext.From != send.Ref() || ext.HLC != send.HLC {
		t.Errorf("ext %+v does not reference send %+v", ext, send)
	}
	if recv.Kind != "wire-recv" || recv.Detail != "kind=join from=a" || recv.View != "3@d1" {
		t.Errorf("recv event = %+v", recv)
	}
	if parent == nil || recv.Parent == nil || *recv.Parent != send.Ref() || *parent != send.Ref() {
		t.Errorf("parent %v / recv.Parent %v, want %v", parent, recv.Parent, send.Ref())
	}
	if !send.HLC.Before(recv.HLC) {
		t.Errorf("recv HLC %v not after send HLC %v despite the skew", recv.HLC, send.HLC)
	}

	// Merge alone (flush's data path) returns the parent, records nothing.
	if p := SendExt(a, tmpl).Merge(b); p == nil || p.Seq != 2 || b.Rec.Total() != 1 {
		t.Errorf("Merge: parent %v, receiver events %d", p, b.Rec.Total())
	}

	// The engine-side helpers are the same pair under the kga.Causal
	// hook's scope and template; a hook without a recorder stamps nothing.
	ca := &kga.Causal{Scope: a, Event: obs.Event{Comp: "cliques", Group: "g"}}
	cb := &kga.Causal{Scope: b, Event: obs.Event{Comp: "cliques", Group: "g"}}
	if KGASendExt(&kga.Causal{}, "join-seed") != nil {
		t.Error("KGASendExt without a recorder produced an ext")
	}
	if KGASendExt(nil, "join-seed") != nil {
		t.Error("KGASendExt without a hook produced an ext")
	}
	(*Ext)(nil).ObserveKGA(cb, "join-seed", "a") // no ext: no-op
	KGASendExt(ca, "join-seed").ObserveKGA(cb, "join-seed", "a")
	evs := a.Rec.Events()
	send = evs[len(evs)-1]
	evs = b.Rec.Events()
	recv = evs[len(evs)-1]
	if send.Comp != "cliques" || send.Group != "g" || send.Kind != "wire-send" || send.Detail != "kind=join-seed" {
		t.Errorf("kga send event = %+v", send)
	}
	if recv.Kind != "wire-recv" || recv.Detail != "kind=join-seed from=a" || recv.Parent == nil || *recv.Parent != send.Ref() {
		t.Errorf("kga recv event = %+v, want parent %v", recv, send.Ref())
	}
}
