package wirecodec

import (
	"repro/internal/kga"
	"repro/internal/obs"
)

// The causal-edge protocol of every wire hop (spread frames, flush
// frames, core envelopes, KGA bodies) lives here and nowhere else. A
// send site records a "wire-send" trace event and puts its (node, seq)
// and HLC on the frame; the receive site merges the clock and records
// "wire-recv" with the send as causal parent. Chatter that would flood
// the trace ring (heartbeats, bulk data below the flush layer) carries
// a clock-only stamp: it keeps the fleet's HLCs tight and records
// nothing. Of the event a caller passes, only Comp/Group/View/Detail are
// used.

// SendExt records ev as a "wire-send" on sc and returns the extension to
// stamp the outgoing frame with; nil when sc has no recorder.
func SendExt(sc *obs.Scope, ev obs.Event) *Ext {
	if sc == nil || sc.Rec == nil {
		return nil
	}
	ev = sc.Record(obs.Event{Comp: ev.Comp, Kind: "wire-send",
		Group: ev.Group, View: ev.View, Detail: ev.Detail})
	return &Ext{From: ev.Ref(), HLC: ev.HLC}
}

// ClockExt returns an extension carrying only an HLC stamp; nil when sc
// has no recorder.
func ClockExt(sc *obs.Scope) *Ext {
	if sc == nil || sc.Rec == nil {
		return nil
	}
	return &Ext{HLC: sc.Rec.Clock().Tick()}
}

// Merge merges the sender's clock into sc's and returns the send event
// the frame references, nil for a clock-only stamp. Nil-safe on both
// sides. The flush data path calls it directly: its receive event is the
// later "deliver", recorded with this parent at the application hand-off.
func (e *Ext) Merge(sc *obs.Scope) *obs.EventRef {
	if e == nil || sc == nil || sc.Rec == nil {
		return nil
	}
	sc.Observe(e.HLC)
	if e.From.Seq == 0 {
		return nil
	}
	return &e.From
}

// Observe runs at a receive site: Merge, then — when the frame references
// a send — ev recorded as "wire-recv" with that parent and " from=<from>"
// appended to its Detail (built only then, so clock-only frames cost no
// allocation). It returns the parent.
func (e *Ext) Observe(sc *obs.Scope, ev obs.Event, from string) *obs.EventRef {
	parent := e.Merge(sc)
	if parent != nil {
		sc.Record(obs.Event{Comp: ev.Comp, Kind: "wire-recv", Parent: parent,
			Group: ev.Group, View: ev.View, Detail: ev.Detail + " from=" + from})
	}
	return parent
}

// KGASendExt stamps an outgoing protocol body of the named message type
// through the engine's causal hook; nil without one.
func KGASendExt(c *kga.Causal, typeName string) *Ext {
	if c == nil {
		return nil
	}
	ev := c.Event
	ev.Detail = "kind=" + typeName
	return SendExt(c.Scope, ev)
}

// ObserveKGA records the receipt of a protocol body of the named message
// type from the given member through the engine's causal hook.
func (e *Ext) ObserveKGA(c *kga.Causal, typeName, from string) {
	if c != nil {
		ev := c.Event
		ev.Detail = "kind=" + typeName
		e.Observe(c.Scope, ev, from)
	}
}
