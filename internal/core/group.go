package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/crypt"
	"repro/internal/kga"
	"repro/internal/obs"
	"repro/internal/spread"
)

// groupCtx phases.
type phase int

const (
	phaseNoView     phase = iota // before the first VS view
	phaseAnnouncing              // collecting per-view announcements
	phaseAgreeing                // key agreement operations in flight
	phaseSecured                 // key installed, group operational
)

// groupCtx is one group's security context: the per-group event handler of
// the paper's modular architecture.
type groupCtx struct {
	conn      *Conn
	name      string
	protoName string
	suiteName string
	proto     kga.Protocol

	phase phase
	view  *spread.ViewEvent

	// Announcement collection for the current view.
	anns map[string]*announceBody
	// pubkeys is this group's long-term public key directory, learned
	// from announcements.
	pubkeys map[string]*big.Int

	// Key agreement operation queue for the current view (a
	// partition+merge maps to Leave then Merge, Table 1).
	ops       []kga.Event
	fullRekey bool

	// Deferred protocol messages: arrived before the local engine was
	// ready (out of phase or ahead of our progress); retried after every
	// state change, discarded at the next view.
	deferred []deferredMsg

	// Buffered application frames for epochs we have not reached yet.
	pendingData map[uint64][]pendingFrame

	key *kga.GroupKey
	// keyBorn is when the current key was installed (drives the periodic
	// refresh policy).
	keyBorn time.Time
	suite   crypt.Suite

	refreshWanted bool
	// pendingRefreshFrom remembers a refresh-start marker that arrived
	// while an operation was in flight.
	pendingRefreshFrom string

	// Observability: rekeyStart stamps when the current rekey began (view
	// arrival or refresh start) and rekeyClass labels its membership-event
	// type for the latency histogram ("join", "cascade", "refresh", ...).
	// The once-per-epoch first-send event lives in the edge sealState.
	rekeyStart time.Time
	rekeyClass string
	// kgaSeq numbers the protocol engine's trace events within the
	// current rekey ("round=N"), reset whenever a new rekey begins.
	kgaSeq int
}

type deferredMsg struct {
	from string
	msg  kga.Message
}

type pendingFrame struct {
	sender string
	frame  []byte
}

const maxDeferred = 4096

func (g *groupCtx) secured() bool { return g.phase == phaseSecured && g.suite != nil }

// onView handles an installed VS view: announce our state and wait for
// everyone else's (the alignment round that makes cascaded events safe).
func (g *groupCtx) onView(v spread.ViewEvent) {
	// An in-progress agreement is void: its remaining messages can never
	// arrive (VS closed the old view). State divergence between members
	// is detected by the alignment check below.
	g.proto.Reset()

	vv := v
	g.view = &vv
	g.phase = phaseAnnouncing
	// Revoke the edge-sealing snapshot: senders fail ErrNotSecured until
	// the new view's key installs, exactly like the loop-side phase check.
	g.conn.publishSealer(g.name, 0, nil)
	g.anns = make(map[string]*announceBody, len(v.Members))
	g.ops = nil
	g.fullRekey = false
	g.deferred = nil
	g.pendingRefreshFrom = ""
	g.refreshWanted = false
	for _, frames := range g.pendingData {
		g.conn.pendingDiscarded.Add(int64(len(frames)))
	}
	g.pendingData = make(map[uint64][]pendingFrame)
	g.rekeyStart = time.Now()
	g.rekeyClass = ""
	g.kgaSeq = 0

	ann := &announceBody{
		Name:  g.conn.Name(),
		Pub:   g.proto.PubKey(),
		Proto: g.protoName,
	}
	if k := g.proto.Key(); k != nil {
		ann.Epoch = k.Epoch
		ann.Digest = keyDigest(k.Bytes(), k.Epoch)
		ann.Members = g.proto.Members()
	}
	enc, err := encodeEnvelope(&envelope{Kind: envAnnounce, Ann: ann},
		g.conn.envSendExt(g.name, envAnnounce))
	if err != nil {
		g.conn.warn(g.name, err)
		return
	}
	// Agreed delivery: the announcement is caused by the view, so causal
	// ordering guarantees every member sees it after installing the view
	// (a FIFO announcement could arrive first and be dropped as stale).
	if err := g.conn.f.Multicast(spread.Agreed, g.name, enc); err != nil {
		g.conn.warn(g.name, fmt.Errorf("announce: %w", err))
	}
	g.conn.obs.Record(obs.Event{Comp: "core", Kind: "announce",
		Group: g.name, View: fmt.Sprintf("%v", v.ID), KeyEpoch: ann.Epoch,
		Detail: fmt.Sprintf("reason=%v members=%v", v.Reason, v.MemberNames())})
}

// onEnvelope routes a secure-layer message.
func (g *groupCtx) onEnvelope(from string, env *envelope) {
	switch env.Kind {
	case envAnnounce:
		g.onAnnounce(from, env.Ann)
	case envKGA:
		if env.KGA == nil || from == g.conn.Name() {
			return // self-originated protocol broadcasts are skipped
		}
		g.onKGA(from, *env.KGA)
	case envData:
		g.onData(from, env.Epoch, env.Frame)
	case envRefreshStart:
		g.onRefreshStart(from)
	case envRefreshRequest:
		g.onRefreshRequest(from)
	}
}

func (g *groupCtx) onAnnounce(from string, ann *announceBody) {
	if g.phase != phaseAnnouncing || g.view == nil || ann == nil || ann.Name != from {
		return
	}
	if !slices.Contains(g.view.MemberNames(), from) {
		return
	}
	if ann.Proto != g.protoName {
		g.conn.warn(g.name, fmt.Errorf("member %s uses key agreement %q, group uses %q", from, ann.Proto, g.protoName))
	}
	// Every view re-announces every member's long-term key; only a key
	// that differs from the one already validated for this member needs
	// the check again (pubkeys holds validated keys only).
	if known := g.pubkeys[from]; known == nil || ann.Pub == nil || known.Cmp(ann.Pub) != 0 {
		if err := g.conn.dhGroup.CheckElement(ann.Pub); err != nil {
			g.conn.warn(g.name, fmt.Errorf("announce from %s: %w", from, err))
			return
		}
	}
	g.anns[from] = ann
	g.pubkeys[from] = ann.Pub
	if len(g.anns) == len(g.view.Members) {
		g.plan()
	}
}

// plan maps the membership change onto key agreement operations (Table 1),
// choosing the incremental path when the surviving members' committed
// states align and the full re-key otherwise (cascade recovery).
func (g *groupCtx) plan() {
	members := g.view.MemberNames()
	joined := g.view.Joined // globally consistent: restamped tail / joiner

	base := make([]string, 0, len(members))
	for _, m := range members {
		if !slices.Contains(joined, m) {
			base = append(base, m)
		}
	}

	ops, aligned := g.incrementalPlan(members, base, joined)
	if aligned {
		g.startOps(ops, false)
		return
	}

	// Cascade fallback: full re-key. The oldest member re-founds the
	// group; everyone else merges into it. Deterministic for all members
	// because it depends only on the canonical member order. A fresh or
	// lone member founding its group is the degenerate case.
	full := []kga.Event{{Type: kga.EvFound, Members: members[:1]}}
	if len(members) > 1 {
		full = append(full, kga.Event{Type: kga.EvMerge, Members: slices.Clone(members), Joined: slices.Clone(members[1:])})
	}
	g.startOps(full, len(members) > 1)
}

// incrementalPlan derives the cheap operation sequence if the base members
// agree on their committed state; ok=false demands the full re-key.
func (g *groupCtx) incrementalPlan(members, base, joined []string) ([]kga.Event, bool) {
	if len(base) == 0 {
		return nil, false
	}
	// All base members must report an identical committed context.
	ref := g.anns[base[0]]
	if ref == nil || ref.Epoch == 0 {
		return nil, false
	}
	for _, b := range base[1:] {
		a := g.anns[b]
		if a == nil || a.Epoch != ref.Epoch || !bytes.Equal(a.Digest, ref.Digest) ||
			!membersEqual(a.Members, ref.Members) {
			return nil, false
		}
	}
	// The survivors must be a subset of the committed membership, in
	// committed order (so Leave's survivor-order check passes).
	si := 0
	var left []string
	for _, m := range ref.Members {
		if si < len(base) && base[si] == m {
			si++
			continue
		}
		left = append(left, m)
	}
	if si != len(base) {
		return nil, false
	}

	var ops []kga.Event
	if len(left) > 0 {
		ops = append(ops, kga.Event{Type: kga.EvLeave, Members: slices.Clone(base), Left: left})
	}
	switch {
	case len(joined) == 0:
		if len(ops) == 0 {
			// A view with no net membership change still re-keys:
			// something happened at the transport level.
			ops = append(ops, kga.Event{Type: kga.EvRefresh, Members: slices.Clone(base)})
		}
	case len(joined) == 1 && (g.view.Reason == spread.ReasonJoin || g.view.Reason == spread.ReasonInitial):
		ops = append(ops, kga.Event{Type: kga.EvJoin, Members: slices.Clone(members), Joined: slices.Clone(joined)})
	default:
		ops = append(ops, kga.Event{Type: kga.EvMerge, Members: slices.Clone(members), Joined: slices.Clone(joined)})
	}
	return ops, true
}

// startOps begins executing the operation queue. Members being added by an
// operation only participate in that operation: their stale context (from
// the other side of a partition, or none at all) is dissolved.
func (g *groupCtx) startOps(ops []kga.Event, fullRekey bool) {
	me := g.conn.Name()
	g.fullRekey = fullRekey

	// Classify the rekey for the latency histogram: a cascade fallback
	// overrides the view reason (it is the expensive path the paper's
	// integration problem is about).
	switch {
	case fullRekey:
		g.rekeyClass = "cascade"
	case g.view != nil:
		g.rekeyClass = g.view.Reason.String()
	}
	opTypes := make([]string, len(ops))
	for i, op := range ops {
		opTypes[i] = op.Type.String()
	}
	viewStr := ""
	if g.view != nil {
		viewStr = fmt.Sprintf("%v", g.view.ID)
	}
	g.conn.obs.Record(obs.Event{Comp: "core", Kind: "plan",
		Group: g.name, View: viewStr,
		Detail: fmt.Sprintf("class=%s ops=%v fullRekey=%v", g.rekeyClass, opTypes, fullRekey)})

	// Keep only the operations this member participates in.
	var mine []kga.Event
	for _, op := range ops {
		switch op.Type {
		case kga.EvFound:
			if op.Members[0] == me {
				mine = append(mine, op)
			}
		case kga.EvJoin, kga.EvMerge:
			mine = append(mine, op)
		default:
			if slices.Contains(op.Members, me) {
				mine = append(mine, op)
			}
		}
	}
	if len(mine) == 0 {
		return
	}
	// A member that enters via join/merge without owning the base
	// context starts fresh.
	first := mine[0]
	if (first.Type == kga.EvJoin || first.Type == kga.EvMerge) && slices.Contains(first.Joined, me) {
		g.proto.Dissolve()
	}
	g.ops = mine
	g.phase = phaseAgreeing
	g.driveNext()
}

// driveNext starts the next queued operation.
func (g *groupCtx) driveNext() {
	if len(g.ops) == 0 {
		return
	}
	op := g.ops[0]
	g.ops = g.ops[1:]
	res, err := g.proto.HandleEvent(op)
	if err != nil {
		g.conn.warn(g.name, fmt.Errorf("key agreement %v (members=%v joined=%v left=%v committed=%v): %w",
			op.Type, op.Members, op.Joined, op.Left, g.proto.Members(), err))
		return
	}
	g.sendAll(res.Msgs)
	if res.Key != nil {
		g.onKeyEstablished(res.Key)
	}
	g.retryDeferred()
}

func (g *groupCtx) sendAll(msgs []kga.Message) {
	for _, m := range msgs {
		enc, err := encodeEnvelope(&envelope{Kind: envKGA, KGA: &m},
			g.conn.envSendExt(g.name, envKGA))
		if err != nil {
			g.conn.warn(g.name, err)
			continue
		}
		// FIFO is sufficient for key agreement traffic (Section 5.3).
		if m.To == "" {
			err = g.conn.f.Multicast(spread.FIFO, g.name, enc)
		} else {
			err = g.conn.f.Unicast(spread.FIFO, g.name, m.To, enc)
		}
		if err != nil {
			g.conn.warn(g.name, fmt.Errorf("send key agreement message: %w", err))
		}
	}
}

func (g *groupCtx) onKGA(from string, m kga.Message) {
	if g.phase == phaseAnnouncing || g.phase == phaseNoView {
		g.defer_(from, m)
		return
	}
	res, err := g.proto.HandleMessage(m)
	if err != nil {
		if isRetryable(err) {
			g.defer_(from, m)
		} else {
			g.conn.warn(g.name, fmt.Errorf("key agreement message from %s: %w", from, err))
		}
		return
	}
	g.sendAll(res.Msgs)
	if res.Key != nil {
		g.onKeyEstablished(res.Key)
	}
	g.retryDeferred()
}

// isRetryable reports whether a protocol error means "not ready yet"
// rather than "corrupt".
func isRetryable(err error) bool {
	return errors.Is(err, kga.ErrRetry)
}

func (g *groupCtx) defer_(from string, m kga.Message) {
	if len(g.deferred) >= maxDeferred {
		g.conn.warn(g.name, errors.New("deferred protocol message buffer overflow"))
		return
	}
	g.deferred = append(g.deferred, deferredMsg{from: from, msg: m})
}

// retryDeferred replays deferred messages until no further progress.
func (g *groupCtx) retryDeferred() {
	for {
		if len(g.deferred) == 0 || g.phase == phaseAnnouncing {
			return
		}
		queue := g.deferred
		g.deferred = nil
		progressed := false
		for i, dm := range queue {
			res, err := g.proto.HandleMessage(dm.msg)
			if err != nil {
				if isRetryable(err) {
					g.deferred = append(g.deferred, dm)
					continue
				}
				g.conn.warn(g.name, fmt.Errorf("deferred message from %s: %w", dm.from, err))
				continue
			}
			progressed = true
			g.sendAll(res.Msgs)
			if res.Key != nil {
				g.onKeyEstablished(res.Key)
			}
			// Re-queue the rest and restart the scan.
			g.deferred = append(g.deferred, queue[i+1:]...)
			break
		}
		if !progressed {
			return
		}
	}
}

// onKeyEstablished installs a completed agreement's key. Intermediate keys
// of a multi-operation view (leave-then-merge) stay internal; the group
// becomes secured when the queue drains.
func (g *groupCtx) onKeyEstablished(k *kga.GroupKey) {
	g.key = k
	if len(g.ops) > 0 {
		g.driveNext()
		return
	}
	suite, err := crypt.NewSuite(g.suiteName, k.Bytes(), suiteContext(g.name, k.Epoch))
	if err != nil {
		g.conn.warn(g.name, fmt.Errorf("derive cipher suite: %w", err))
		return
	}
	g.suite = suite
	g.phase = phaseSecured
	g.keyBorn = time.Now()
	g.conn.publishSealer(g.name, k.Epoch, suite)

	class := g.rekeyClass
	if class == "" {
		class = "refresh"
	}
	viewStr := ""
	if g.view != nil {
		viewStr = fmt.Sprintf("%v", g.view.ID)
	}
	if !g.rekeyStart.IsZero() && g.conn.obs != nil && g.conn.obs.Reg != nil {
		d := time.Since(g.rekeyStart)
		g.conn.obs.Reg.Observe("rekey_latency", d)
		g.conn.obs.Reg.Observe(obs.LabelName("rekey_latency", class), d)
	}
	g.conn.obs.Record(obs.Event{Comp: "core", Kind: "key-install",
		Group: g.name, View: viewStr, KeyEpoch: k.Epoch,
		Detail: fmt.Sprintf("class=%s members=%v controller=%s fullRekey=%v",
			class, g.proto.Members(), g.proto.Controller(), g.fullRekey)})
	g.conn.log.Debugf("%s: %s keyed at epoch %d (class=%s controller=%s)",
		g.conn.Name(), g.name, k.Epoch, class, g.proto.Controller())

	reason := spread.ReasonInitial
	if g.view != nil {
		reason = g.view.Reason
	}
	g.conn.emit(SecureView{
		Group:      g.name,
		Epoch:      k.Epoch,
		Members:    g.proto.Members(),
		Controller: g.proto.Controller(),
		Reason:     reason,
		FullRekey:  g.fullRekey,
		KeyDigest:  keyDigest(k.Bytes(), k.Epoch),
	})

	// Deliver application frames that raced ahead of our key.
	if frames, ok := g.pendingData[k.Epoch]; ok {
		delete(g.pendingData, k.Epoch)
		for _, f := range frames {
			g.openFrame(f.sender, f.frame)
		}
	}
	g.maybeStartRefresh()
	g.maybeEnterRefresh()
}

// maybeEnterRefresh enters a refresh whose start marker arrived while we
// were busy.
func (g *groupCtx) maybeEnterRefresh() {
	if g.pendingRefreshFrom == "" || !g.secured() || g.proto.InProgress() {
		return
	}
	from := g.pendingRefreshFrom
	g.pendingRefreshFrom = ""
	g.onRefreshStart(from)
}

func (g *groupCtx) onData(from string, epoch uint64, frame []byte) {
	if g.secured() && epoch == g.key.Epoch {
		g.openFrame(from, frame)
		return
	}
	if g.key != nil && epoch < g.key.Epoch {
		g.conn.staleDropped.Inc()
		g.conn.warn(g.name, fmt.Errorf("stale data frame from %s (epoch %d < %d)", from, epoch, g.key.Epoch))
		return
	}
	// The sender finished an agreement we are still completing (its
	// message is VS-guaranteed to be for this view); hold the frame.
	g.pendingData[epoch] = append(g.pendingData[epoch], pendingFrame{sender: from, frame: frame})
}

func (g *groupCtx) openFrame(from string, frame []byte) {
	// Our own loopback: an exact match against the sent-frame cache is
	// ciphertext identity, so the retained plaintext stands in for the
	// open. A miss (evicted, or a frame from before a restart) falls
	// through to the normal authenticated open.
	if from == g.conn.Name() {
		if pt, ok := g.conn.sent.take(frame); ok {
			g.conn.emit(Message{Group: g.name, Sender: from, Data: pt})
			return
		}
	}
	pt, err := g.suite.Open(frame)
	if err != nil {
		g.conn.warn(g.name, fmt.Errorf("frame from %s: %w", from, err))
		return
	}
	g.conn.emit(Message{Group: g.name, Sender: from, Data: pt})
}

// maybeStartRefresh runs a controller-initiated refresh once the group is
// idle.
func (g *groupCtx) maybeStartRefresh() {
	if !g.refreshWanted || !g.secured() || g.proto.InProgress() {
		return
	}
	if g.proto.Controller() != g.conn.Name() {
		g.refreshWanted = false
		return
	}
	g.refreshWanted = false
	// Announce the refresh so members enter the operation before the
	// controller's broadcast reaches them (FIFO from the same sender
	// guarantees the order).
	enc, err := encodeEnvelope(&envelope{Kind: envRefreshStart},
		g.conn.envSendExt(g.name, envRefreshStart))
	if err != nil {
		g.conn.warn(g.name, err)
		return
	}
	if err := g.conn.f.Multicast(spread.FIFO, g.name, enc); err != nil {
		g.conn.warn(g.name, fmt.Errorf("refresh start: %w", err))
		return
	}
	g.rekeyStart = time.Now()
	g.rekeyClass = "refresh"
	g.kgaSeq = 0
	g.conn.obs.Record(obs.Event{Comp: "core", Kind: "refresh-start",
		Group: g.name, KeyEpoch: g.key.Epoch, Detail: "controller"})
	res, err := g.proto.HandleEvent(kga.Event{Type: kga.EvRefresh, Members: g.proto.Members()})
	if err != nil {
		g.conn.warn(g.name, fmt.Errorf("refresh: %w", err))
		return
	}
	g.phase = phaseAgreeing
	g.sendAll(res.Msgs)
	if res.Key != nil {
		g.onKeyEstablished(res.Key)
	}
}

// onRefreshStart: the controller announced a refresh; enter the operation
// so its broadcast finds us ready.
func (g *groupCtx) onRefreshStart(from string) {
	if from == g.conn.Name() {
		return
	}
	if !g.secured() || g.proto.InProgress() {
		// Not idle yet: remember the marker and enter the refresh once
		// the current operation completes (the controller's broadcast
		// is deferred and replayed by retryDeferred).
		g.pendingRefreshFrom = from
		return
	}
	if from != g.proto.Controller() {
		g.conn.warn(g.name, fmt.Errorf("refresh start from non-controller %s", from))
		return
	}
	g.rekeyStart = time.Now()
	g.rekeyClass = "refresh"
	g.kgaSeq = 0
	g.conn.obs.Record(obs.Event{Comp: "core", Kind: "refresh-start",
		Group: g.name, KeyEpoch: g.key.Epoch, Detail: "from=" + from})
	res, err := g.proto.HandleEvent(kga.Event{Type: kga.EvRefresh, Members: g.proto.Members()})
	if err != nil {
		g.conn.warn(g.name, fmt.Errorf("refresh: %w", err))
		return
	}
	g.phase = phaseAgreeing
	g.sendAll(res.Msgs)
	if res.Key != nil {
		g.onKeyEstablished(res.Key)
	}
	g.retryDeferred()
}

// onRefreshRequest: a member asked the controller to re-key.
func (g *groupCtx) onRefreshRequest(from string) {
	if !slices.Contains(g.proto.Members(), from) {
		return
	}
	if g.proto.Controller() != g.conn.Name() {
		return // stale routing: we are not the controller
	}
	g.refreshWanted = true
	g.maybeStartRefresh()
}
