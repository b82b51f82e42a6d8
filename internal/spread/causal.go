package spread

import (
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Causal wire tracing (the protocol is wirecodec.SendExt/Observe). Frames
// that represent a protocol step carry a recorded send event; heartbeats
// and data frames are clock carriers only (clockExt) — a steady
// 1/interval event stream would evict the rekey history from the trace
// ring.

// wireEvent is the trace-event template of a frame of the given kind.
func (d *Daemon) wireEvent(kind msgKind) obs.Event {
	return obs.Event{Comp: "spread", View: d.viewStr, Detail: kindDetail(kind)}
}

func (d *Daemon) wireSendExt(kind msgKind) *wirecodec.Ext {
	return wirecodec.SendExt(d.obs, d.wireEvent(kind))
}

func (d *Daemon) clockExt() *wirecodec.Ext { return wirecodec.ClockExt(d.obs) }

// observeWireExt runs at every receive site.
func (d *Daemon) observeWireExt(from string, kind msgKind, ext *wirecodec.Ext) {
	ext.Observe(d.obs, d.wireEvent(kind), from)
}
