package core

import (
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Causal tracing of secure-layer envelopes (the protocol is
// wirecodec.SendExt/Observe). Together with the flush layer's
// flush-ok/deliver edges the envelope edges close the cross-node
// happens-before chain of a rekey: every member's announce provably
// follows its vs-view-install, and key-install provably follows every
// member's announce.

// envEvent is the trace-event template of an envelope of the given kind.
func envEvent(group string, kind int) obs.Event {
	return obs.Event{Comp: "core", Group: group, Detail: envKindDetail(kind)}
}

func (c *Conn) envSendExt(group string, kind int) *wirecodec.Ext {
	return wirecodec.SendExt(c.obs, envEvent(group, kind))
}

// envClockExt stamps data envelopes, which propagate the clock without
// recording trace events. The data path's causal edge the checkers rely
// on is the flush layer's send→deliver pair; recording a core
// wire-send/wire-recv pair per bulk message on top of it costs two ring
// writes and two clock reads each.
func (c *Conn) envClockExt() *wirecodec.Ext { return wirecodec.ClockExt(c.obs) }
