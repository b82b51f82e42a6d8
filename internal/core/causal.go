package core

import (
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Causal tracing of secure-layer envelopes. Every envelope carries the
// sender's HLC stamp and the reference of a recorded "wire-send" event
// (the wirecodec extension block); the receiver merges the clock and records
// "wire-recv" with the causal parent edge. Together with the flush
// layer's flush-ok/deliver edges this closes the cross-node
// happens-before chain of a rekey: every member's announce provably
// follows its vs-view-install, and key-install provably follows every
// member's announce.

// obsCausal bridges kga.Causal onto a trace scope for one group's
// protocol engine: KGA bodies (Cliques/CKD) stamp their own wire-send
// events under the protocol's component name, so the analyzer can
// attribute per-round latency to the key agreement itself rather than to
// the enclosing envelope.
type obsCausal struct {
	sc    *obs.Scope
	comp  string
	group string
}

func (oc *obsCausal) StampSend(detail string) (obs.EventRef, obs.HLC) {
	ev := oc.sc.Record(obs.Event{Comp: oc.comp, Kind: "wire-send",
		Group: oc.group, Detail: detail})
	return ev.Ref(), ev.HLC
}

func (oc *obsCausal) ObserveRecv(from obs.EventRef, h obs.HLC, detail string) {
	oc.sc.Observe(h)
	if from.Seq == 0 {
		return
	}
	parent := from
	oc.sc.Record(obs.Event{Comp: oc.comp, Kind: "wire-recv", Parent: &parent,
		Group: oc.group, Detail: detail})
}

// envSendExt records a core wire-send trace event for an envelope of
// the given kind and returns the frame extension.
func (c *Conn) envSendExt(group string, kind int) *wirecodec.Ext {
	if c.obs == nil || c.obs.Rec == nil {
		return nil
	}
	ev := c.obs.Record(obs.Event{
		Comp:   "core",
		Kind:   "wire-send",
		Group:  group,
		Detail: envKindDetail(kind),
	})
	return &wirecodec.Ext{From: ev.Ref(), HLC: ev.HLC}
}

// envClockExt returns an extension carrying only an HLC stamp — for data
// envelopes, which propagate the clock without recording trace events.
// The data path's causal edge the checkers rely on is the flush layer's
// send→deliver pair; recording a core wire-send/wire-recv pair per bulk
// message on top of it costs two ring writes and two clock reads each.
func (c *Conn) envClockExt() *wirecodec.Ext {
	if c.obs == nil || c.obs.Rec == nil {
		return nil
	}
	return &wirecodec.Ext{HLC: c.obs.Rec.Clock().Tick()}
}

// observeEnvExt runs on every decoded envelope: it merges the sender's
// clock and records the receive with the causal parent edge.
func (c *Conn) observeEnvExt(from, group string, kind int, ext *wirecodec.Ext) {
	if ext == nil || c.obs == nil || c.obs.Rec == nil {
		return
	}
	c.obs.Observe(ext.HLC)
	if ext.From.Seq == 0 {
		return
	}
	parent := ext.From
	c.obs.Record(obs.Event{
		Comp:   "core",
		Kind:   "wire-recv",
		Parent: &parent,
		Group:  group,
		Detail: envKindDetail(kind) + " from=" + from,
	})
}
