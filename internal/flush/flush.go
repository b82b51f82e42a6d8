// Package flush implements the Flush layer of the paper (Figure 2): it
// turns the Extended Virtual Synchrony semantics of the spread layer into
// View Synchrony, which is what the secure group layer builds on.
//
// Protocol: when the group communication layer announces a membership
// change, the flush layer delivers a FlushRequest to the application —
// crucially without revealing what the change is, exactly as the paper
// notes (Section 5.4): "at the time the security layer is asked to OK a new
// membership change it does not yet know what the membership event is".
// The application acknowledges with FlushOK; the layer multicasts a
// flush-ok marker and stops the application from sending. When flush-ok
// markers from every member of the pending view have arrived, the new view
// is installed and delivered.
//
// Every application message is tagged with the sender's installed view, so
// a receiver delivers it in the very view the sender believed current —
// the VS guarantee that makes "encrypt under the current group key" sound.
// Messages tagged with a view the receiver has not installed yet are
// buffered until it catches up; a cascading membership change discards the
// interrupted flush and starts over.
package flush

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/wirecodec"
)

// Errors returned by the flush layer.
var (
	ErrFlushing   = errors.New("flush: sends are blocked until the pending view installs")
	ErrNoView     = errors.New("flush: no view installed for group")
	ErrNotPending = errors.New("flush: no flush in progress for group")
	ErrClosed     = errors.New("flush: connection closed")
)

// Event is anything delivered by the flush layer.
type Event interface{ isFlushEvent() }

// FlushRequest asks the application to acknowledge a pending membership
// change with Conn.FlushOK. It intentionally carries no membership details.
type FlushRequest struct {
	Group string
}

func (FlushRequest) isFlushEvent() {}

// View is an installed View-Synchrony view.
type View struct {
	Info spread.ViewEvent
}

func (View) isFlushEvent() {}

// Data is an application message delivered under VS semantics.
type Data struct {
	Group   string
	Sender  string
	Service spread.Service
	Data    []byte

	// parent is the sender's wire-send trace reference, carried through
	// buffering so the deliver trace event records the causal edge at
	// the point the message is actually handed to the application.
	parent *obs.EventRef
}

func (Data) isFlushEvent() {}

// SelfLeave confirms this member's own voluntary departure from a group.
type SelfLeave struct {
	Group string
}

func (SelfLeave) isFlushEvent() {}

// wire kinds inside the flush layer.
const (
	wireFlushOK = iota + 1
	wireData
)

type flushMsg struct {
	Kind    int
	View    spread.GroupViewID
	Service spread.Service
	Data    []byte
}

// encodeMsg writes a flush-layer frame with the binary wire codec; ext is
// the sender's causal-tracing stamp, nil when it has none.
func encodeMsg(m *flushMsg, ext *wirecodec.Ext) ([]byte, error) {
	// Sized up front: the sealed payload dominates the frame, and letting
	// append grow from nil re-copies it several times per message.
	b := wirecodec.AppendPreambleExt(make([]byte, 0, len(m.Data)+64), ext)
	b = wirecodec.AppendInt(b, int64(m.Kind))
	b = wirecodec.AppendUvarint(b, m.View.DaemonView.Epoch)
	b = wirecodec.AppendString(b, m.View.DaemonView.Coord)
	b = wirecodec.AppendUvarint(b, m.View.Seq)
	b = wirecodec.AppendInt(b, int64(m.Service))
	b = wirecodec.AppendBytes(b, m.Data)
	return b, nil
}

// decodeMsg reads a flush-layer frame and its causal-tracing extension
// (nil when the sender had no stamp).
func decodeMsg(data []byte) (*flushMsg, *wirecodec.Ext, error) {
	d := wirecodec.NewDec(data)
	m := &flushMsg{}
	m.Kind = int(d.Int())
	m.View.DaemonView.Epoch = d.Uvarint()
	m.View.DaemonView.Coord = d.String()
	m.View.Seq = d.Uvarint()
	m.Service = spread.Service(d.Int())
	m.Data = d.Bytes()
	if err := d.Close(); err != nil {
		return nil, nil, fmt.Errorf("decode flush message: %w", err)
	}
	return m, d.Ext(), nil
}

// Conn provides VS semantics over one spread client.
type Conn struct {
	c      spread.Endpoint
	events chan Event
	done   chan struct{}
	obs    *obs.Scope
	log    *obs.Logger

	mu     sync.Mutex
	groups map[string]*groupState
	closed bool
}

type groupState struct {
	// current is the installed VS view; nil before the first install.
	current *spread.ViewEvent
	// currentStr caches current.ID.String(): the data fast path stamps
	// every trace event with the view ID, and formatting it per message
	// dominated the send profile. It changes only on view installs.
	currentStr string
	// pending is the membership change being flushed; pendingStr caches
	// its formatted ID the same way.
	pending    *spread.ViewEvent
	pendingStr string
	okSent     bool
	oks        map[string]bool
	// buffered holds messages tagged with the pending view, sent by
	// members that installed it before us.
	buffered []Data
	// flushStart stamps when the pending change was announced, so the
	// flush-round duration histogram measures announce -> VS install.
	flushStart time.Time
}

// Wrap builds a flush connection over a spread client (in-process or
// remote) and starts its event pump. The caller must consume Events.
func Wrap(c spread.Endpoint) *Conn { return WrapScope(c, nil) }

// WrapScope is Wrap with an observability scope: flush-round durations and
// causal trace events are recorded there. A nil scope disables recording
// but not logging.
func WrapScope(c spread.Endpoint, sc *obs.Scope) *Conn {
	f := &Conn{
		c:      c,
		events: make(chan Event, 4096),
		done:   make(chan struct{}),
		obs:    sc,
		log:    obs.L("flush"),
		groups: make(map[string]*groupState),
	}
	go f.pump()
	return f
}

// Client returns the underlying spread client endpoint.
func (f *Conn) Client() spread.Endpoint { return f.c }

// Name returns the member name.
func (f *Conn) Name() string { return f.c.Name() }

// Events returns the VS event stream. It closes when the underlying client
// disconnects.
func (f *Conn) Events() <-chan Event { return f.events }

// Join requests group membership; the membership arrives through the
// normal FlushRequest / View sequence.
func (f *Conn) Join(group string) error { return f.c.Join(group) }

// Leave requests departure; a SelfLeave event confirms it.
func (f *Conn) Leave(group string) error { return f.c.Leave(group) }

// Disconnect closes the underlying client.
func (f *Conn) Disconnect() error { return f.c.Disconnect() }

// FlushOK acknowledges the pending membership change for the group. After
// FlushOK, sends to the group fail with ErrFlushing until the new view is
// delivered.
func (f *Conn) FlushOK(group string) error {
	f.mu.Lock()
	g := f.groups[group]
	if g == nil || g.pending == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotPending, group)
	}
	if g.okSent {
		f.mu.Unlock()
		return nil
	}
	g.okSent = true
	id := g.pending.ID
	idStr := g.pendingStr
	f.mu.Unlock()

	enc, err := encodeMsg(&flushMsg{Kind: wireFlushOK, View: id},
		f.wireSendExt("kind=flush-ok", group, idStr))
	if err != nil {
		return err
	}
	// Agreed (causality-respecting) delivery: the marker was caused by
	// the view event, so every member delivers it after that view —
	// FIFO-class markers could overtake the view at other daemons and be
	// discarded as stale.
	return f.c.Multicast(spread.Agreed, group, enc)
}

// Multicast sends application data to the group under the current view.
func (f *Conn) Multicast(svc spread.Service, group string, data []byte) error {
	enc, err := f.sealSend(group, svc, data)
	if err != nil {
		return err
	}
	return f.c.Multicast(svc, group, enc)
}

// Unicast sends application data to one member under the current view.
func (f *Conn) Unicast(svc spread.Service, group, member string, data []byte) error {
	enc, err := f.sealSend(group, svc, data)
	if err != nil {
		return err
	}
	return f.c.Unicast(svc, group, member, enc)
}

func (f *Conn) sealSend(group string, svc spread.Service, data []byte) ([]byte, error) {
	f.mu.Lock()
	g := f.groups[group]
	if g == nil || g.current == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoView, group)
	}
	if g.okSent {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrFlushing, group)
	}
	id := g.current.ID
	idStr := g.currentStr
	f.mu.Unlock()
	return encodeMsg(&flushMsg{Kind: wireData, View: id, Service: svc, Data: data},
		f.wireSendExt("kind=data", group, idStr))
}

// wireSendExt records a flush-layer wire-send trace event with the given
// detail and returns the causal extension for the outgoing frame.
func (f *Conn) wireSendExt(detail, group, view string) *wirecodec.Ext {
	return wirecodec.SendExt(f.obs, obs.Event{Comp: "flush", Group: group, View: view, Detail: detail})
}

// CurrentView returns the installed VS view for the group, or false.
func (f *Conn) CurrentView(group string) (spread.ViewEvent, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := f.groups[group]
	if g == nil || g.current == nil {
		return spread.ViewEvent{}, false
	}
	return *g.current, true
}

// pump consumes spread events and drives the flush protocol.
func (f *Conn) pump() {
	defer close(f.events)
	defer close(f.done)
	for ev := range f.c.Events() {
		switch e := ev.(type) {
		case spread.ViewEvent:
			f.onView(e)
		case spread.DataEvent:
			f.onData(e)
		}
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// deliver pushes an event to the application, dropping nothing: the
// channel is large and the secure layer consumes promptly; if it truly
// wedges, the blocking here exerts backpressure on the spread client
// buffer, which eventually disconnects us — the fail-stop model.
func (f *Conn) deliver(ev Event) {
	f.events <- ev
}

func (f *Conn) onView(v spread.ViewEvent) {
	// A voluntary self-leave terminates the group context directly.
	if len(v.Members) == 0 {
		f.mu.Lock()
		delete(f.groups, v.Group)
		f.mu.Unlock()
		f.deliver(SelfLeave{Group: v.Group})
		return
	}

	f.mu.Lock()
	g := f.groups[v.Group]
	if g == nil {
		g = &groupState{}
		f.groups[v.Group] = g
	}
	// A cascading change discards the interrupted flush: the paper's
	// central integration problem, handled here and again in the secure
	// layer's key-agreement restart.
	vv := v
	g.pending = &vv
	g.pendingStr = vv.ID.String()
	g.okSent = false
	g.oks = make(map[string]bool)
	g.buffered = nil
	g.flushStart = time.Now()
	f.mu.Unlock()

	f.log.Tracef("%s onView grp=%s id=%v members=%v reason=%v", f.Name(), v.Group, v.ID, v.MemberNames(), v.Reason)
	f.obs.Record(obs.Event{Comp: "flush", Kind: "flush-request",
		Group: v.Group, View: fmt.Sprintf("%v", v.ID),
		Detail: fmt.Sprintf("reason=%v members=%v", v.Reason, v.MemberNames())})
	f.deliver(FlushRequest{Group: v.Group})
}

func (f *Conn) onData(e spread.DataEvent) {
	m, ext, err := decodeMsg(e.Data)
	if err != nil {
		return // not a flush-layer frame: drop
	}
	switch m.Kind {
	case wireFlushOK:
		ext.Observe(f.obs, obs.Event{Comp: "flush", Group: e.Group,
			View: fmt.Sprintf("%v", m.View), Detail: "kind=flush-ok"}, e.Sender)
		f.onFlushOK(e, m)
	case wireData:
		f.onAppData(e, m, ext.Merge(f.obs))
	}
}

func (f *Conn) onFlushOK(e spread.DataEvent, m *flushMsg) {
	f.mu.Lock()
	g := f.groups[e.Group]
	if g == nil || g.pending == nil || g.pending.ID != m.View {
		f.mu.Unlock()
		f.log.Tracef("%s onFlushOK grp=%s from=%s id=%v STALE", f.Name(), e.Group, e.Sender, m.View)
		return // stale flush-ok from an abandoned round
	}
	g.oks[e.Sender] = true
	f.log.Tracef("%s onFlushOK grp=%s from=%s id=%v oks=%d/%d", f.Name(), e.Group, e.Sender, m.View, len(g.oks), len(g.pending.Members))
	if !f.flushCompleteLocked(g) {
		f.mu.Unlock()
		return
	}
	// Install the VS view.
	installed := *g.pending
	installedStr := g.pendingStr
	buffered := g.buffered
	started := g.flushStart
	g.current = g.pending
	g.currentStr = g.pendingStr
	g.pending = nil
	g.pendingStr = ""
	g.okSent = false
	g.oks = nil
	g.buffered = nil
	f.mu.Unlock()

	f.log.Tracef("%s install grp=%s id=%v members=%v", f.Name(), e.Group, installed.ID, installed.MemberNames())
	var round time.Duration
	if !started.IsZero() {
		round = time.Since(started)
	}
	if f.obs != nil && f.obs.Reg != nil {
		f.obs.Reg.Observe("flush_round_duration", round)
	}
	f.obs.Record(obs.Event{Comp: "flush", Kind: "vs-view-install",
		Group: installed.Group, View: installedStr,
		Detail: fmt.Sprintf("reason=%v members=%v round=%v", installed.Reason, installed.MemberNames(), round)})
	f.deliver(View{Info: installed})
	for _, d := range buffered {
		f.recordDeliver(d, installedStr)
		f.deliver(d)
	}
}

func (f *Conn) flushCompleteLocked(g *groupState) bool {
	for _, mem := range g.pending.Members {
		if !g.oks[mem.Name] {
			return false
		}
	}
	return true
}

func (f *Conn) onAppData(e spread.DataEvent, m *flushMsg, parent *obs.EventRef) {
	d := Data{Group: e.Group, Sender: e.Sender, Service: m.Service, Data: m.Data, parent: parent}
	f.mu.Lock()
	g := f.groups[e.Group]
	if g == nil {
		f.mu.Unlock()
		return
	}
	switch {
	case g.current != nil && g.current.ID == m.View:
		viewStr := g.currentStr
		f.mu.Unlock()
		f.recordDeliver(d, viewStr)
		f.deliver(d)
	case g.pending != nil && g.pending.ID == m.View:
		// Sent by a member that installed the pending view before us;
		// deliver after we install it.
		g.buffered = append(g.buffered, d)
		f.mu.Unlock()
	default:
		// A view we never installed (stale or skipped): VS forbids
		// delivering it here.
		f.mu.Unlock()
	}
}

// recordDeliver traces the actual hand-off of a VS message to the
// application, with the sender's wire-send as causal parent — the edge
// the causal-order checker uses to assert messages are delivered in the
// view they were sent in.
func (f *Conn) recordDeliver(d Data, view string) {
	if f.obs == nil || f.obs.Rec == nil {
		return
	}
	f.obs.Record(obs.Event{Comp: "flush", Kind: "deliver", Parent: d.parent,
		Group: d.Group, View: view, Detail: "from=" + d.Sender})
}
