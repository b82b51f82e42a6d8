package spread

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// recordNode is a transport.Node that keeps every frame sent through it.
type recordNode struct{ sent []sentFrame }

type sentFrame struct {
	to   string
	data []byte
}

func (n *recordNode) Name() string { return "" }
func (n *recordNode) Close() error { return nil }
func (n *recordNode) Send(to string, data []byte) error {
	n.sent = append(n.sent, sentFrame{to: to, data: bytes.Clone(data)})
	return nil
}

// framesOf decodes the recorded frames of one kind.
func framesOf(t *testing.T, d *Daemon, kind msgKind) []*wireMsg {
	t.Helper()
	var out []*wireMsg
	for _, f := range d.node.(*recordNode).sent {
		m, _, err := decodeWire(f.data)
		if err != nil {
			t.Fatalf("recorded frame does not decode: %v", err)
		}
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

func testData(sender string, seq, lts uint64, svc Service) *dataMsg {
	return &dataMsg{Sender: sender, Seq: seq, LTS: lts,
		P: payload{Kind: payClientData, Group: "g", Member: sender, Service: svc}}
}

// TestDataFromNonMemberDropped: a data frame stamped with the current view
// but sent by a daemon outside it is neither queued nor delivered, whatever
// its service.
func TestDataFromNonMemberDropped(t *testing.T) {
	var got []msgKey
	d := newDeliveryHarness("d1", []string{"d1"}, func(m *dataMsg) { got = append(got, m.key()) })
	now := time.Now()
	d.dispatch("evil", &wireMsg{Kind: kindData, Data: testData("evil", 1, 1, Reliable)}, now)
	d.dispatch("evil", &wireMsg{Kind: kindData, Data: testData("evil", 2, 2, Agreed)}, now)
	d.tryDeliver()
	if len(got) != 0 {
		t.Fatalf("delivered %v from a daemon outside the view", got)
	}
	if n := d.counters.dataDropped.Value(); n != 2 {
		t.Fatalf("spread_foreign_data_dropped = %d, want 2", n)
	}
}

// TestDataFromWrongOriginDropped: a view member cannot inject messages in
// another member's name. The forged frames are dropped and leave no trace
// in the origin's sequence space, so its genuine frames still deliver.
func TestDataFromWrongOriginDropped(t *testing.T) {
	var got []msgKey
	d := newDeliveryHarness("d1", []string{"d1", "d2", "d3"}, func(m *dataMsg) { got = append(got, m.key()) })
	now := time.Now()
	// d3's clock passes everything below, so only origin checks hold the
	// forged AGREED frame back.
	d.dispatch("d3", &wireMsg{Kind: kindHeartbeat, HB: &hbMsg{LTS: 100}}, now)
	d.dispatch("d3", &wireMsg{Kind: kindData, Data: testData("d2", 1, 5, Reliable)}, now)
	d.dispatch("d3", &wireMsg{Kind: kindData, Data: testData("d2", 2, 6, Agreed)}, now)
	if len(got) != 0 {
		t.Fatalf("delivered %v relayed by d3 in d2's name", got)
	}
	if n := d.counters.dataDropped.Value(); n != 2 {
		t.Fatalf("spread_foreign_data_dropped = %d, want 2", n)
	}
	d.dispatch("d2", &wireMsg{Kind: kindData, Data: testData("d2", 1, 7, Reliable)}, now)
	d.dispatch("d2", &wireMsg{Kind: kindData, Data: testData("d2", 2, 8, Agreed)}, now)
	want := []msgKey{{Sender: "d2", Seq: 1}, {Sender: "d2", Seq: 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("genuine frames delivered %v, want %v", got, want)
	}
	if lts := d.member("d2").seenLTS; lts != 8 {
		t.Fatalf("d2 seenLTS = %d, want 8 (the genuine frames' clock)", lts)
	}
}

// TestRetainedReleasedAtStabilityHorizon: the stability sweep releases
// every retained message at or below the horizon, also one delivered after
// a survivor. FIFO-class traffic is delivered ahead of the agreed order, so
// delivery order is not LTS order.
func TestRetainedReleasedAtStabilityHorizon(t *testing.T) {
	d := newDeliveryHarness("d1", []string{"d1", "d2", "d3"}, nil)
	d2, d3 := d.member("d2"), d.member("d3")
	d.onData(testData("d2", 1, 5, Reliable)) // delivered at once, LTS 5
	d3.seenLTS = 5
	d.onData(testData("d1", 1, 1, Agreed)) // delivered next, LTS 1
	if n := d.counters.msgsDelivered.Value(); n != 2 {
		t.Fatalf("delivered %d, want 2", n)
	}
	d2.stable, d3.stable = 3, 3
	if h := d.stabilityHorizon(); h != 3 {
		t.Fatalf("stability horizon = %d, want 3", h)
	}
	d.gcRetained()
	if n := d.counters.retainedGauge.Value(); n != 1 {
		t.Fatalf("retained %d messages after the sweep, want 1 (d2's LTS 5)", n)
	}

	// The released message is gone for retransmission; the retained one
	// is still served.
	d.onNack("d3", &nackMsg{Sender: "d1", From: 1, To: 1})
	if n := len(framesOf(t, d, kindData)); n != 0 {
		t.Fatalf("NACK for a released message resent %d frames", n)
	}
	d.onNack("d3", &nackMsg{Sender: "d2", From: 1, To: 1})
	resent := framesOf(t, d, kindData)
	if len(resent) != 1 || resent[0].Data.Sender != "d2" || resent[0].Data.Seq != 1 {
		t.Fatalf("NACK for the retained message resent %d frames, want d2:1", len(resent))
	}
}

// TestInstallEncodingDeterministic: a coordinator with the same delivery
// state and the same sync-acks sends the same install bytes every time.
func TestInstallEncodingDeterministic(t *testing.T) {
	members := []string{"d1", "d2", "d3"}
	ack := func(msgs ...*dataMsg) *syncAckMsg {
		a := &syncAckMsg{Round: 7}
		for _, m := range msgs {
			a.Msgs = append(a.Msgs, *m)
		}
		return a
	}
	var first []byte
	for run := 0; run < 20; run++ {
		d := newDeliveryHarness("d1", members, nil)
		for seq := uint64(1); seq <= 3; seq++ {
			d.onData(testData("d1", seq, 2+seq, Reliable)) // delivered, retained
		}
		for seq := uint64(1); seq <= 2; seq++ {
			d.onData(testData("d3", seq, seq, FIFO)) // delivered, retained
		}
		for seq := uint64(1); seq <= 3; seq++ {
			d.onData(testData("d2", seq, 9+seq, Agreed)) // pending: d3's clock is at 2
		}
		d.form = formingState{active: true, isCoord: true, round: 7,
			synced: members, acks: map[string]*syncAckMsg{
				"d2": ack(testData("d2", 1, 10, Agreed), testData("d2", 4, 13, Agreed), testData("d1", 3, 5, Reliable)),
				"d3": ack(testData("d3", 3, 3, FIFO), testData("d1", 1, 3, Reliable), testData("d3", 1, 1, FIFO)),
			}}
		d.form.acks["d1"] = d.makeSyncAck()
		d.form.acks["d1"].Round = 7
		d.maybeInstall()

		var inst []byte
		for _, f := range d.node.(*recordNode).sent {
			if m, _, err := decodeWire(f.data); err == nil && m.Kind == kindInstall && f.to == "d2" {
				inst = f.data
			}
		}
		if inst == nil {
			t.Fatal("no install sent to d2")
		}
		if run == 0 {
			first = inst
			// The union lists d1's own contribution in view order, then
			// by seq, then what the later candidates add, in their order.
			m, _, _ := decodeWire(inst)
			var union []msgKey
			for _, r := range m.Install.Recovered[ViewID{}] {
				union = append(union, r.key())
			}
			want := []msgKey{{"d1", 1}, {"d1", 2}, {"d1", 3}, {"d2", 1}, {"d2", 2}, {"d2", 3},
				{"d3", 1}, {"d3", 2}, {"d2", 4}, {"d3", 3}}
			if !slices.Equal(union, want) {
				t.Fatalf("recovered union %v, want %v", union, want)
			}
		} else if !bytes.Equal(inst, first) {
			t.Fatalf("run %d: install bytes differ from run 0", run)
		}
	}
}
