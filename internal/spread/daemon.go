package spread

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wirecodec"
)

// Errors returned by the daemon and client API.
var (
	ErrStopped      = errors.New("spread: daemon stopped")
	ErrDisconnected = errors.New("spread: client disconnected")
	ErrBadName      = errors.New("spread: invalid name")
)

// Daemon is one group communication daemon. It runs a single event-loop
// goroutine; all protocol state is confined to that goroutine. Clients
// connect in-process (the daemon-client architecture of Section 3) and
// interact through the Client type.
type Daemon struct {
	name  string
	cfg   Config
	peers []string // all configured daemon names, including self
	node  transport.Node

	inbox chan inboundMsg
	acts  chan func()
	stop  chan struct{}
	done  chan struct{}

	// --- everything below is owned by the event loop ---

	view View
	// viewStr caches view.ID.String(): the data fast path stamps every
	// wire trace event with it, and formatting it per message is
	// measurable. It changes only on view installs.
	viewStr  string
	maxEpoch uint64
	lts      uint64
	seq      uint64

	// lastHeard covers every configured peer, in the view or not: merge
	// discovery and failure detection both read it.
	lastHeard map[string]time.Time
	// members holds the delivery state of each view member, in view order
	// (see member); resetMembers rebuilds it at every view install.
	members    []*member
	futureMsgs []*dataMsg // data for views not yet installed

	// AGREED delivery candidates: every contiguous, ordered queue head is
	// registered here keyed (LTS, sender), so delivering the next agreed
	// message is a heap pop instead of a scan over every sender.
	agreed agreedHeap

	form formingState
	// formingSince marks the start of the current forming *streak*: set
	// when forming (re)activates, cleared only by a view install. Rounds
	// superseding each other keep the original stamp, so a cluster that
	// churns rounds without ever installing shows up as one long wedge in
	// Readiness rather than a series of fresh attempts.
	formingSince time.Time

	groups     map[string]*group
	prevGroups map[string]*group // snapshot taken at view install
	clients    map[string]*Client

	// clientGroups tracks each local client's requested memberships: a
	// group is added when the client submits a join and removed on its
	// leave. Group maps lag behind in-flight joins, so a disconnect must
	// consult this intent record — not the membership — to know which
	// groups need a departure announcement.
	clientGroups map[string]map[string]bool

	// Clock echo debt (see payEcho). sentLTS is the highest Lamport clock
	// advertised to the view: own data frames carry m.LTS, tick and echo
	// heartbeats d.lts. echoDue is set by a peer's ordered frame stamped
	// above it. advFull is when the advertisement budget that ticks and
	// echoes draw from is full again (see spendAdv).
	sentLTS uint64
	echoDue bool
	advFull time.Time

	// Submit-ring plumbing: clients push data payloads into their own
	// bounded ring and ask (at most once per outstanding drain) for a
	// wake-up here; the event loop drains whole batches. subMu guards
	// subReady; subCh carries the level-triggered wake-up.
	subMu      sync.Mutex
	subReady   []*Client
	subCh      chan struct{}
	subScratch []payload // loop-owned drain buffer, reused across batches

	// deliverHook, when set, observes every delivered message before its
	// payload is processed (differential ordering tests).
	deliverHook func(*dataMsg)

	obs      *obs.Scope
	log      *obs.Logger
	counters statsCounters

	stateWait    map[string]bool
	stateEntries map[string][]stateEntry
	stateSeqs    map[string]uint64 // max ViewSeq per group from state exchange
	bufferedMsgs []*dataMsg        // payload delivery deferred during state wait
	queuedOps    []queuedOp        // client ops deferred during forming/state wait
}

// member is one view member's slice of the current view's sequence space,
// as this daemon sees it. A record lives for one view.
type member struct {
	name string
	// seenLTS is the clock through which this daemon has received all of
	// the member's messages; stable is the receive horizon the member
	// last advertised.
	seenLTS uint64
	stable  uint64
	// delivered is the highest seq delivered here.
	delivered uint64
	// contigSeq is the highest seq through which every message has been
	// received (delivered or pending), contigLTS the Lamport timestamp of
	// that last contiguous message. seenLTS may only advance along the
	// contiguous prefix — advancing it past a link-dropped message would
	// move the agreed horizon over a hole and desynchronize delivery.
	contigSeq uint64
	contigLTS uint64
	// agreedSeq is the seq registered in the agreed heap, 0 for none
	// (dedup + lazy deletion).
	agreedSeq uint64
	lastNack  time.Time // retransmission request limiter
	// pending holds received, not yet delivered messages; retained holds
	// delivered ones until they are stable, for NACKs and the view
	// change's delivery cut. Both are sorted by seq, and so by LTS.
	pending  msgQueue
	retained msgQueue
}

// member returns the record of the named view member, or nil.
func (d *Daemon) member(name string) *member {
	for _, mb := range d.members {
		if mb.name == name {
			return mb
		}
	}
	return nil
}

// resetMembers starts a view's delivery state: one empty record per view
// member and an empty agreed heap.
func (d *Daemon) resetMembers() {
	d.members = make([]*member, len(d.view.Members))
	for i, name := range d.view.Members {
		d.members[i] = &member{name: name}
	}
	clear(d.agreed)
	d.agreed = d.agreed[:0]
	d.counters.retainedGauge.Set(0)
}

type inboundMsg struct {
	from string
	data []byte
}

type queuedOp struct {
	p payload
}

// formingState tracks an in-progress daemon membership round. Rounds are
// globally ordered by (round, coord); each daemon remembers the highest
// round it has seen anywhere so new attempts always supersede old ones.
type formingState struct {
	active    bool
	round     uint64
	coord     string
	isCoord   bool
	frozen    bool // syncAck sent: no more old-view data accepted
	proposals map[string]bool
	acks      map[string]*syncAckMsg
	synced    []string
	gatherAt  time.Time
	deadline  time.Time

	// maxRound is the highest round seen in any membership message.
	maxRound uint64
	// lastAcked identifies the (round, coord) whose SYNC we last
	// acknowledged; only a matching INSTALL is accepted.
	ackedRound uint64
	ackedCoord string
}

// NewDaemon creates and starts a daemon attached to the network. peers
// lists every daemon name in the configuration (like Spread's segment
// configuration); the daemon starts in a singleton view and merges with
// peers it hears from.
func NewDaemon(name string, peers []string, net transport.Network, cfg Config) (*Daemon, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty daemon name", ErrBadName)
	}
	d := &Daemon{
		name:         name,
		cfg:          cfg.withDefaults(),
		peers:        slices.Clone(peers),
		inbox:        make(chan inboundMsg, 16384),
		acts:         make(chan func(), 1024),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		lastHeard:    make(map[string]time.Time),
		subCh:        make(chan struct{}, 1),
		groups:       make(map[string]*group),
		prevGroups:   make(map[string]*group),
		clients:      make(map[string]*Client),
		clientGroups: make(map[string]map[string]bool),
	}
	d.obs = obs.NewScope(name, "spread")
	d.log = d.obs.Log
	d.counters = newStatsCounters(d.obs.Reg)
	if !slices.Contains(d.peers, name) {
		d.peers = append(d.peers, name)
	}
	sort.Strings(d.peers)

	node, err := net.Attach(name, daemonHandler{d})
	if err != nil {
		return nil, fmt.Errorf("attach daemon %s: %w", name, err)
	}
	d.node = node

	// Start in a singleton view.
	d.maxEpoch = 1
	d.view = View{ID: ViewID{Epoch: 1, Coord: name}, Members: []string{name}}
	d.viewStr = d.view.ID.String()
	d.resetMembers()
	d.stateWait = map[string]bool{}
	d.stateEntries = map[string][]stateEntry{}
	d.stateSeqs = map[string]uint64{}

	go d.run()
	return d, nil
}

// Name returns the daemon's name.
func (d *Daemon) Name() string { return d.name }

// Stop shuts the daemon down and disconnects its clients.
func (d *Daemon) Stop() {
	select {
	case <-d.stop:
		return
	default:
	}
	close(d.stop)
	<-d.done
}

// CurrentView returns the daemon's installed view (for tests and tools).
// ok is false when the daemon has stopped — a zero View is then a liveness
// signal, not an empty membership.
func (d *Daemon) CurrentView() (view View, ok bool) {
	ch := make(chan View, 1)
	if err := d.do(func() {
		ch <- View{ID: d.view.ID, Members: slices.Clone(d.view.Members)}
	}); err != nil {
		return View{}, false
	}
	return <-ch, true
}

// do runs fn on the event loop and waits for it to be picked up.
func (d *Daemon) do(fn func()) error {
	doneCh := make(chan struct{})
	wrapped := func() {
		fn()
		close(doneCh)
	}
	select {
	case d.acts <- wrapped:
	case <-d.stop:
		return ErrStopped
	}
	select {
	case <-doneCh:
		return nil
	case <-d.done:
		return ErrStopped
	}
}

// daemonHandler is the daemon's transport-facing surface: inbound messages
// plus the optional extensions — link supervision events (PeerWatcher) and
// the daemon's metrics registry (MetricsProvider), so supervised transports
// report dial failures and queue drops into the daemon's own scope.
type daemonHandler struct{ d *Daemon }

func (h daemonHandler) HandleMessage(from string, data []byte) { h.d.handleTransport(from, data) }

func (h daemonHandler) ObsRegistry() *obs.Registry { return h.d.obs.Reg }

func (h daemonHandler) PeerUp(peer string)   { h.d.onPeerEvent(peer, true) }
func (h daemonHandler) PeerDown(peer string) { h.d.onPeerEvent(peer, false) }

var (
	_ transport.PeerWatcher     = daemonHandler{}
	_ transport.MetricsProvider = daemonHandler{}
)

func (d *Daemon) handleTransport(from string, data []byte) {
	select {
	case d.inbox <- inboundMsg{from: from, data: data}:
	case <-d.stop:
	}
}

// onPeerEvent forwards a transport link transition onto the event loop.
// Events are advisory (heartbeats stay the failure-detection source of
// truth), so a full acts queue drops the event rather than blocking the
// transport's supervisor goroutine.
func (d *Daemon) onPeerEvent(peer string, up bool) {
	select {
	case d.acts <- func() { d.peerTransition(peer, up) }:
	case <-d.stop:
	default:
	}
}

// peerTransition reacts to a supervised link changing state. A peer-down
// for a current view member is treated like an expired heartbeat: the
// member is dropped from the reachability estimate and a membership round
// starts immediately, so flush rounds above do not stall for SuspectAfter
// waiting on a dead socket. Peer-up is recorded but deliberately does not
// touch lastHeard — a TCP dial succeeding proves a listener exists, not
// that the daemon behind it is live; its heartbeats will say so.
func (d *Daemon) peerTransition(peer string, up bool) {
	if up {
		d.obs.Record(obs.Event{Comp: "spread", Kind: "peer-up", Detail: peer})
		return
	}
	d.obs.Record(obs.Event{Comp: "spread", Kind: "peer-down", Detail: peer})
	if d.form.active || !slices.Contains(d.view.Members, peer) || peer == d.name {
		return
	}
	delete(d.lastHeard, peer) // excluded from the next reachable estimate
	d.obs.Reg.Counter("spread_peer_down_evictions").Inc()
	d.startForming()
}

// run is the daemon event loop.
func (d *Daemon) run() {
	defer close(d.done)
	defer d.node.Close()
	ticker := time.NewTicker(d.cfg.Heartbeat)
	defer ticker.Stop()
	// echoWake is non-nil while echoTimer is armed for a deferred echo.
	echoTimer := time.NewTimer(d.cfg.Heartbeat)
	echoTimer.Stop()
	defer echoTimer.Stop()
	var echoWake <-chan time.Time
	for {
		select {
		case <-d.stop:
			d.shutdownClients()
			return
		case in := <-d.inbox:
			// One clock read covers the whole burst below: liveness
			// tracking needs heartbeat-granularity timestamps, not a
			// monotonic read per data frame.
			now := time.Now()
			d.handleInbound(in, now)
			// Opportunistically drain a bounded burst of queued frames:
			// under bulk load this amortizes the select overhead without
			// starving acts, submits, or the ticker.
			for i := 0; i < 128; i++ {
				select {
				case in = <-d.inbox:
					d.handleInbound(in, now)
				default:
					i = 128
				}
			}
		case <-d.subCh:
			d.drainSubmits()
		case fn := <-d.acts:
			fn()
		case <-ticker.C:
			d.tick()
		case <-echoWake:
			echoWake = nil
		}
		if d.echoDue {
			if wait := d.payEcho(); wait > 0 && echoWake == nil {
				d.counters.echoDeferred.Inc()
				echoTimer.Reset(wait)
				echoWake = echoTimer.C
			}
		}
	}
}

func (d *Daemon) handleInbound(in inboundMsg, now time.Time) {
	msg, ext, err := decodeWire(in.data)
	if err != nil {
		return // corrupt frame: drop
	}
	d.counters.countRecv(msg.Kind, len(in.data))
	d.observeWireExt(in.from, msg.Kind, ext)
	d.dispatch(in.from, msg, now)
}

// notifySubmit marks a client's ring as ready and wakes the event loop.
// Called from client goroutines; subCh is level-triggered (capacity 1).
func (d *Daemon) notifySubmit(c *Client) {
	d.subMu.Lock()
	d.subReady = append(d.subReady, c)
	d.subMu.Unlock()
	select {
	case d.subCh <- struct{}{}:
	default:
	}
}

// drainSubmits runs on the event loop: it claims the ready list and drains
// each client's submit ring in batch.
func (d *Daemon) drainSubmits() {
	d.subMu.Lock()
	ready := d.subReady
	d.subReady = nil
	d.subMu.Unlock()
	for _, c := range ready {
		d.drainClientRing(c)
	}
}

// drainClientRing flushes every queued data payload from one client's ring
// through the normal submit path, preserving the client's FIFO order. A
// payload processed here can re-enter this function (a delivery can
// overflow an event queue and disconnect the client), so the scratch
// buffer is claimed for the duration — a nested drain allocates its own.
func (d *Daemon) drainClientRing(c *Client) {
	if c.ring == nil {
		return
	}
	scratch := d.subScratch
	d.subScratch = nil
	batch := c.ring.drain(scratch[:0])
	for i := range batch {
		if d.clients[c.name] != c {
			break // disconnected mid-batch: the rest is undeliverable
		}
		d.submit(batch[i])
	}
	clear(batch)
	d.subScratch = batch[:0]
}

func (d *Daemon) shutdownClients() {
	for _, c := range d.clients {
		c.close(ErrStopped)
	}
	d.clients = map[string]*Client{}
}

func (d *Daemon) dispatch(from string, m *wireMsg, now time.Time) {
	d.lastHeard[from] = now
	switch m.Kind {
	case kindHeartbeat:
		d.onHeartbeat(from, m.HB)
	case kindData:
		// Every data frame comes from its origin: broadcastData sends
		// this daemon's own messages, and requestMissing addresses each
		// NACK to the origin of the missing messages.
		if m.Data != nil && m.Data.Sender != from {
			d.counters.dataDropped.Inc()
			return
		}
		d.onData(m.Data)
	case kindPropose:
		d.onPropose(from, m.Prop)
	case kindSync:
		d.onSync(from, m.Sync)
	case kindSyncAck:
		d.onSyncAck(from, m.SyncAck)
	case kindInstall:
		d.onInstall(from, m.Install)
	case kindNack:
		d.onNack(from, m.Nack)
	}
}

// tick drives heartbeats, failure detection and protocol timeouts.
func (d *Daemon) tick() {
	now := time.Now()

	// Heartbeats go to every configured peer: within the view they
	// advance the agreed-delivery horizon; outside they are the
	// discovery mechanism for merges.
	d.spendAdv(now, true)
	d.sendHeartbeat(d.peers)

	// Failure detection: a silent view member triggers a membership
	// change.
	if !d.form.active {
		for _, member := range d.view.Members {
			if member == d.name {
				continue
			}
			heard, ok := d.lastHeard[member]
			if !ok || now.Sub(heard) > d.cfg.SuspectAfter {
				d.startForming()
				break
			}
		}
	}

	d.formingTimers(now)
	d.gcRetained()
}

// receiveHorizon is the LTS through which this daemon has received every
// message from every view member (FIFO links make per-sender horizons
// prefix-complete).
func (d *Daemon) receiveHorizon() uint64 {
	h := d.lts
	for _, mb := range d.members {
		if mb.name != d.name && mb.seenLTS < h {
			h = mb.seenLTS
		}
	}
	return h
}

// stabilityHorizon is the LTS through which every view member has received
// everything; retained messages at or below it can never be needed for
// recovery.
func (d *Daemon) stabilityHorizon() uint64 {
	h := d.receiveHorizon()
	for _, mb := range d.members {
		if mb.name != d.name && mb.stable < h {
			h = mb.stable
		}
	}
	return h
}

// gcRetained releases every retained message at or below the stability
// horizon. A member's retained queue is in LTS order, so each sweep pops
// stable prefixes: O(released + members) per tick.
func (d *Daemon) gcRetained() {
	h := d.stabilityHorizon()
	total := 0
	for _, mb := range d.members {
		for mb.retained.len() > 0 && mb.retained.front().LTS <= h {
			mb.retained.popFront()
		}
		total += mb.retained.len()
	}
	d.counters.retainedGauge.Set(int64(total))
}

func (d *Daemon) onHeartbeat(from string, hb *hbMsg) {
	if hb == nil {
		return
	}
	if hb.LTS > d.lts {
		d.lts = hb.LTS
	}
	mb := d.member(from)
	if mb != nil && hb.View == d.view.ID {
		if hb.Seq > mb.contigSeq {
			// The sender originated messages we never received: the link
			// dropped them. Ask for retransmission and keep the horizon
			// pinned at the contiguous prefix until the gap closes.
			d.requestMissing(mb, mb.contigSeq+1, hb.Seq)
		} else if hb.LTS > mb.seenLTS {
			// All originated messages are accounted for, so the advertised
			// clock hides no undelivered data.
			mb.seenLTS = hb.LTS
			d.tryDeliver()
		}
		if hb.Stable > mb.stable {
			mb.stable = hb.Stable
		}
		return
	}
	// A daemon outside our view means a merge is possible; a view member
	// whose view moved AHEAD of ours installed a view without us. Either
	// way the membership must change. Heartbeats still carrying an older
	// view are just in flight from before our install and must not
	// re-trigger formation (ping-pong churn).
	if mb != nil && !d.view.ID.Less(hb.View) {
		return
	}
	if !d.form.active {
		d.startForming()
	}
}

// bumpLTS advances the Lamport clock for a locally originated message.
func (d *Daemon) bumpLTS() uint64 {
	d.lts++
	return d.lts
}

// broadcastData originates a data message in the current view: it is
// delivered locally through the same path as remote messages and sent to
// every other view member.
//
// While a membership change is in flight (forming, frozen, or a state
// exchange), everything except the state exchange itself is deferred:
// a message originated after this daemon contributed its delivery cut
// would be dropped by every frozen receiver AND missing from the cut —
// silently lost. Deferred payloads replay when the configuration
// stabilizes.
func (d *Daemon) broadcastData(p payload) {
	if p.Kind != payGroupState && (d.form.active || d.form.frozen || len(d.stateWait) > 0) {
		d.queuedOps = append(d.queuedOps, queuedOp{p: p})
		return
	}
	d.seq++
	d.counters.msgsSent.Inc()
	m := &dataMsg{
		View:   d.view.ID,
		Sender: d.name,
		Seq:    d.seq,
		LTS:    d.bumpLTS(),
		P:      p,
	}
	// One pooled encode, fanned out to every member (transports copy on
	// Send). Data frames propagate the clock without recording a trace
	// event: the causal chain the checkers rely on rides the flush layer's
	// send→deliver edge, and two ring writes per message are measurable at
	// bulk rates.
	enc, err := encodeWire(wirecodec.GetBuf(), &wireMsg{Kind: kindData, Data: m}, d.clockExt())
	if err == nil {
		for _, member := range d.view.Members {
			if member != d.name {
				d.counters.countSent(kindData, len(enc))
				_ = d.node.Send(member, enc)
			}
		}
		d.sentLTS = m.LTS
	}
	wirecodec.PutBuf(enc)
	d.onData(m)
}

// onData accepts a data message into the per-sender pending queue and
// attempts delivery.
func (d *Daemon) onData(m *dataMsg) {
	if m == nil {
		return
	}
	if m.View != d.view.ID {
		// Messages from views we have not installed yet are buffered;
		// messages from superseded views are dropped (their delivery
		// cut already closed).
		if d.view.ID.Less(m.View) {
			d.futureMsgs = append(d.futureMsgs, m)
		}
		return
	}
	if d.form.frozen {
		// We already contributed our delivery-cut state; late old-view
		// messages are recovered from the union or lost for everyone.
		return
	}
	mb := d.member(m.Sender)
	if mb == nil {
		d.counters.dataDropped.Inc() // not a view member's message
		return
	}
	d.acceptData(mb, m)
	// Only this sender's FIFO chain and the agreed heap can have been
	// unblocked; no need to rescan every sender.
	d.deliverReady(mb)
	d.drainAgreed()
	// Agreed-class delivery waits until every member's clock passes the
	// message timestamp. A peer's frame stamped above what this daemon
	// has advertised leaves a clock debt, paid at the end of the loop
	// turn (payEcho), so idle members advance the horizon in one round
	// trip rather than one heartbeat interval. Own broadcasts never set
	// it: the data frame already carried the clock.
	if m.ordered() && m.LTS > d.sentLTS {
		d.echoDue = true
	}
}

// payEcho settles the clock debt with one heartbeat to the view members.
// If own data or a tick has advertised the clock since, the debt clears
// without a frame. An echo draws a whole token from the advertisement
// budget; on a short budget the debt stays and payEcho returns how long
// until a token refills.
func (d *Daemon) payEcho() (wait time.Duration) {
	if d.lts <= d.sentLTS {
		d.echoDue = false
		return 0
	}
	if wait = d.spendAdv(time.Now(), false); wait > 0 {
		return wait
	}
	d.echoDue = false
	d.sendHeartbeat(d.view.Members)
	return 0
}

// The clock-advertisement budget: tick and echo heartbeats draw from one
// bucket that refills advPerHeartbeat tokens per Heartbeat and holds at
// most advBurst. A steady stream thus gets about advPerHeartbeat
// advertisements per Heartbeat, ticks included (a tick that finds less
// than a token takes what is left), while the handful of echoes a
// rekey's AGREED rounds need after a quiet period go out at once.
const (
	advPerHeartbeat = 4
	advBurst        = 16
)

// spendAdv draws one token from the advertisement budget. The budget is
// kept as advFull, the time it is full again, so each missing token is
// Heartbeat/advPerHeartbeat of distance ahead of now. An echo needs a
// whole token: on a short budget it takes nothing and gets the wait until
// one refills. A tick never waits: it spends its token, and on an empty
// budget the budget stays at zero.
func (d *Daemon) spendAdv(now time.Time, tick bool) (wait time.Duration) {
	gap := d.cfg.Heartbeat / advPerHeartbeat
	ahead := max(d.advFull.Sub(now), 0)
	if wait = ahead - (advBurst-1)*gap; wait > 0 && !tick {
		return wait
	}
	d.advFull = now.Add(min(ahead+gap, advBurst*gap))
	return 0
}

// sendHeartbeat advertises this daemon's clock, receive horizon and
// sequence number to every name in dests but its own.
func (d *Daemon) sendHeartbeat(dests []string) {
	hb := &wireMsg{Kind: kindHeartbeat, HB: &hbMsg{
		View:   d.view.ID,
		LTS:    d.lts,
		Stable: d.receiveHorizon(),
		Seq:    d.seq,
	}}
	// Pooled encode: transports copy on Send, so the buffer recycles as
	// soon as the fan-out loop finishes.
	data, err := encodeWire(wirecodec.GetBuf(), hb, d.clockExt())
	if err == nil {
		for _, p := range dests {
			if p != d.name {
				d.counters.countSent(kindHeartbeat, len(data))
				_ = d.node.Send(p, data)
			}
		}
		d.sentLTS = d.lts
	}
	wirecodec.PutBuf(data)
}

// acceptData inserts a message into the sender's pending queue
// (idempotent). The sender's horizon advances only along the contiguous
// sequence prefix; a message beyond a gap parks in pending and triggers a
// retransmission request instead.
func (d *Daemon) acceptData(mb *member, m *dataMsg) {
	if m.LTS > d.lts {
		d.lts = m.LTS
	}
	if m.Seq <= mb.delivered {
		return // already delivered
	}
	pos, found := mb.pending.search(m.Seq)
	if found {
		return
	}
	mb.pending.insert(pos, m)
	d.advanceContig(mb)
}

// advanceContig extends the sender's gap-free prefix through the pending
// queue, advances the agreed horizon along it, and requests retransmission
// for any remaining hole.
func (d *Daemon) advanceContig(mb *member) {
	cs, lts := mb.contigSeq, mb.contigLTS
	q := &mb.pending
	n := q.len()
	// Binary-search past the already-counted prefix (entries awaiting the
	// delivery horizon): with a deep backlog a linear skip here turns every
	// insert into an O(backlog) walk.
	i, _ := q.search(cs + 1)
	for i < n && q.at(i).Seq == cs+1 {
		cs++
		lts = q.at(i).LTS
		i++
	}
	mb.contigSeq, mb.contigLTS = cs, lts
	if lts > mb.seenLTS {
		mb.seenLTS = lts
	}
	if i < n {
		// Entries beyond the prefix mean the link dropped the sequence
		// numbers in between.
		d.requestMissing(mb, cs+1, q.at(i).Seq-1)
	}
}

// requestMissing NACKs a gap in a member's sequence space to that member,
// which retransmits from its retained buffer. Rate-limited to one request
// per member per heartbeat interval; the gap re-arms it on the next
// heartbeat if the retransmission was itself lost.
func (d *Daemon) requestMissing(mb *member, from, upto uint64) {
	if upto < from || mb.name == d.name {
		return
	}
	now := time.Now()
	if now.Sub(mb.lastNack) < d.cfg.Heartbeat {
		return
	}
	mb.lastNack = now
	d.counters.nacksSent.Inc()
	d.log.Debugf("%s: nack to %s for [%d,%d]", d.name, mb.name, from, upto)
	d.sendTo(mb.name, &wireMsg{Kind: kindNack, Nack: &nackMsg{
		View:   d.view.ID,
		Sender: mb.name,
		From:   from,
		To:     upto,
	}})
}

// onNack retransmits the requested messages from the origin's retained and
// pending buffers to the requester. Stability GC cannot have discarded
// them: the requester's stalled receive horizon holds the stability
// horizon below the missing timestamps.
func (d *Daemon) onNack(from string, n *nackMsg) {
	if n == nil || n.View != d.view.ID {
		return // the view change machinery recovers across views
	}
	mb := d.member(n.Sender)
	upto := n.To
	if mb == nil || upto < n.From {
		return
	}
	if upto-n.From > 4096 {
		upto = n.From + 4096 // cap a malformed or hostile range
	}
	for seq := n.From; seq <= upto; seq++ {
		m := mb.retained.find(seq)
		if m == nil {
			m = mb.pending.find(seq)
		}
		if m == nil {
			continue
		}
		d.resendData(from, m)
	}
}

// resendData re-sends one data message to a single daemon, encoded exactly
// like the original broadcast.
func (d *Daemon) resendData(to string, m *dataMsg) {
	enc, err := encodeWire(wirecodec.GetBuf(), &wireMsg{Kind: kindData, Data: m}, d.clockExt())
	if err == nil {
		d.counters.msgsRetransmitted.Inc()
		d.counters.countSent(kindData, len(enc))
		_ = d.node.Send(to, enc)
	}
	wirecodec.PutBuf(enc)
}

// tryDeliver delivers every message whose ordering constraints are met:
// per-sender contiguous sequence numbers always; for AGREED-class traffic,
// global (LTS, sender) order up to the horizon every member has passed.
// It is the full rescan used by horizon advances; the per-message hot path
// calls deliverReady/drainAgreed directly.
func (d *Daemon) tryDeliver() {
	for _, mb := range d.members {
		d.deliverReady(mb)
	}
	d.drainAgreed()
}

// deliverReady drains one member's queue as far as ordering allows:
// FIFO-class heads deliver as soon as they are contiguous; the first
// contiguous AGREED-class head is registered in the heap (it must also
// wait for the delivery horizon) and drainAgreed takes over from there.
func (d *Daemon) deliverReady(mb *member) {
	for mb.pending.len() > 0 {
		m := mb.pending.front()
		if m.Seq != mb.delivered+1 {
			return
		}
		if m.ordered() {
			if mb.agreedSeq != m.Seq {
				mb.agreedSeq = m.Seq
				d.agreed.push(agreedEntry{lts: m.LTS, sender: mb.name, seq: m.Seq, mb: mb})
			}
			return
		}
		mb.pending.popFront()
		d.deliver(mb, m)
	}
}

// drainAgreed delivers AGREED-class heads in global (LTS, sender) order up
// to the receive horizon: repeated heap pops instead of per-message scans
// over every sender. Entries are validated against live queue state when
// popped; stale ones (superseded by re-registration) are simply discarded.
// The horizon is cached and recomputed only when the top entry sits beyond
// it — deliveries advance clocks monotonically, so a recheck can only
// widen it.
func (d *Daemon) drainAgreed() {
	if d.agreed.len() == 0 {
		return
	}
	horizon := d.receiveHorizon()
	for d.agreed.len() > 0 {
		top := d.agreed.peek()
		if top.lts > horizon {
			horizon = d.receiveHorizon()
			if top.lts > horizon {
				return
			}
		}
		d.agreed.pop()
		mb := top.mb
		if mb.agreedSeq == top.seq {
			mb.agreedSeq = 0
		}
		if mb.pending.len() == 0 {
			continue
		}
		m := mb.pending.front()
		if m.Seq != top.seq || m.Seq != mb.delivered+1 || !m.ordered() {
			continue // stale entry
		}
		mb.pending.popFront()
		d.deliver(mb, m)
		d.deliverReady(mb) // re-register the sender's next head
	}
}

// deliver commits a message: it is retained for view-change recovery and
// its payload is processed (or buffered during a state exchange).
func (d *Daemon) deliver(mb *member, m *dataMsg) {
	if d.deliverHook != nil {
		d.deliverHook(m)
	}
	d.counters.msgsDelivered.Inc()
	mb.delivered = m.Seq
	mb.retained.push(m)
	d.counters.retainedGauge.Add(1)
	if len(d.stateWait) > 0 && m.P.Kind != payGroupState {
		d.bufferedMsgs = append(d.bufferedMsgs, m)
		return
	}
	d.processPayload(m)
}
