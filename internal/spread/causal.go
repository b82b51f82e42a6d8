package spread

import (
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Causal wire tracing. Every codec-encoded daemon frame carries the
// sender's hybrid-logical-clock stamp (the wirecodec extension block); frames
// that represent a protocol step additionally carry the (node, seq)
// reference of a recorded "wire-send" trace event, which the receiver
// stores as the causal parent of its "wire-recv" event. Heartbeats are
// clock carriers only — they tick and merge HLCs so the fleet's stamps
// stay tight, but record no events (a steady 1/interval event stream
// would evict the rekey history from the trace ring).

// wireSendExt records a wire-send trace event for a frame of the given
// kind and returns the extension to stamp the frame with.
func (d *Daemon) wireSendExt(kind msgKind) *wirecodec.Ext {
	if d.obs == nil || d.obs.Rec == nil {
		return nil
	}
	ev := d.obs.Record(obs.Event{
		Comp:   "spread",
		Kind:   "wire-send",
		View:   d.viewStr,
		Detail: kindDetail(kind),
	})
	return &wirecodec.Ext{From: ev.Ref(), HLC: ev.HLC}
}

// clockExt returns an extension carrying only an HLC stamp — for
// heartbeats and seal wrappers, which propagate the clock without
// recording trace events.
func (d *Daemon) clockExt() *wirecodec.Ext {
	if d.obs == nil || d.obs.Rec == nil {
		return nil
	}
	return &wirecodec.Ext{HLC: d.obs.Rec.Clock().Tick()}
}

// observeWireExt runs at every receive site: it merges the sender's
// clock and, when the frame references a send event, records the
// receive with the causal parent edge.
func (d *Daemon) observeWireExt(from string, kind msgKind, ext *wirecodec.Ext) {
	if ext == nil || d.obs == nil || d.obs.Rec == nil {
		return
	}
	d.obs.Observe(ext.HLC)
	if ext.From.Seq == 0 {
		return
	}
	parent := ext.From
	d.obs.Record(obs.Event{
		Comp:   "spread",
		Kind:   "wire-recv",
		Parent: &parent,
		View:   d.viewStr,
		Detail: kindDetail(kind) + " from=" + from,
	})
}

// daemonCausal implements kga.Causal for the daemon-layer key agreement:
// KGA bodies exchanged between daemons stamp their own events so the
// inter-daemon rekey appears in the happens-before graph under its own
// component.
type daemonCausal struct{ d *Daemon }

func (c *daemonCausal) StampSend(detail string) (obs.EventRef, obs.HLC) {
	ev := c.d.obs.Record(obs.Event{Comp: "spread-sec", Kind: "wire-send",
		View: c.d.view.ID.String(), Detail: detail})
	return ev.Ref(), ev.HLC
}

func (c *daemonCausal) ObserveRecv(from obs.EventRef, h obs.HLC, detail string) {
	c.d.obs.Observe(h)
	if from.Seq == 0 {
		return
	}
	parent := from
	c.d.obs.Record(obs.Event{Comp: "spread-sec", Kind: "wire-recv",
		Parent: &parent, View: c.d.view.ID.String(), Detail: detail})
}
