package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/flush"
	"repro/internal/kga"
	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/wirecodec"
)

// Errors returned by the secure layer API.
var (
	ErrClosed     = errors.New("core: connection closed")
	ErrNoGroup    = errors.New("core: not a member of the group")
	ErrNotSecured = errors.New("core: group key agreement has not completed")
)

// Conn is a secure group connection: the client-model secure Spread
// session. One Conn can hold memberships in several groups, each with its
// own key agreement module and cipher suite, exactly as in the paper's
// run-time module selection.
type Conn struct {
	f           *flush.Conn
	dhGroup     *dh.Group
	counter     *dh.Counter
	autoRefresh time.Duration
	obs         *obs.Scope
	log         *obs.Logger
	// The secure data path's two drops: a frame sealed under an epoch
	// older than the installed key (core_stale_frames_dropped), and frames
	// held in pendingData for an epoch never installed before the next
	// view (core_pending_discarded).
	staleDropped     *obs.Counter
	pendingDiscarded *obs.Counter

	reqs   chan func()
	events chan Event
	done   chan struct{}

	// Loop-owned state.
	groups map[string]*groupCtx

	// sealers holds one epoch-pinned key snapshot holder per joined group,
	// so Multicast seals on the caller's goroutine without a round-trip
	// through the event loop. The map itself changes only on join/leave
	// (under sealMu); the loop publishes a fresh sealState into the holder
	// when a key installs and revokes it (stores nil) when a view change
	// invalidates the key.
	sealMu  sync.RWMutex
	sealers map[string]*atomic.Pointer[sealState]

	// sent caches frames this member sealed and has not yet seen loop
	// back, so the delivery path skips decrypting bytes we produced
	// moments ago.
	sent sentFrames
}

// sentFrames is a bounded opportunistic cache over the sender's own
// in-flight frames: AGREED multicast delivers the sender's copy too, and
// opening a frame whose plaintext we still hold is pure overhead on the
// bulk path. Entries are keyed by the frame's tail (the MAC for real
// suites — unique per seal thanks to the fresh IV) and validated with a
// full-frame compare on lookup, so a hit is exact-ciphertext identity and
// sound for every suite. Misses — evicted entries, frames dropped by a
// view change, remote senders — fall back to a normal authenticated open.
type sentFrames struct {
	mu    sync.Mutex
	m     map[string]sentEntry
	order []string // FIFO eviction order; head marks consumed prefix
	head  int
	bytes int
}

type sentEntry struct {
	frame []byte
	plain []byte
}

const (
	sentKeyLen       = 16
	sentMaxEntries   = 4096
	sentMaxBytes     = 4 << 20
	sentMaxFrameSize = sentMaxBytes / 8
)

func sentKey(frame []byte) (string, bool) {
	if len(frame) < sentKeyLen {
		return "", false
	}
	return string(frame[len(frame)-sentKeyLen:]), true
}

// remember stores a sealed frame and its plaintext; both are copied.
// Oversized frames are not cached — the open they cost later is cheaper
// than churning the whole cache through eviction.
func (s *sentFrames) remember(frame, plain []byte) {
	k, ok := sentKey(frame)
	if !ok || len(frame)+len(plain) > sentMaxFrameSize {
		return
	}
	// One allocation for both copies; the subslices never grow.
	buf := make([]byte, len(frame)+len(plain))
	copy(buf, frame)
	copy(buf[len(frame):], plain)
	e := sentEntry{frame: buf[:len(frame):len(frame)], plain: buf[len(frame):]}
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]sentEntry)
	}
	if _, dup := s.m[k]; !dup {
		s.m[k] = e
		s.order = append(s.order, k)
		s.bytes += len(e.frame) + len(e.plain)
		s.evictLocked()
	}
	s.mu.Unlock()
}

// take returns the cached plaintext for an exact frame match and removes
// the entry; a miss returns false and leaves the cache untouched.
func (s *sentFrames) take(frame []byte) ([]byte, bool) {
	k, ok := sentKey(frame)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	e, hit := s.m[k]
	if hit && bytes.Equal(e.frame, frame) {
		delete(s.m, k)
		s.bytes -= len(e.frame) + len(e.plain)
		s.mu.Unlock()
		return e.plain, true
	}
	s.mu.Unlock()
	return nil, false
}

// clear drops every entry (group departure or teardown).
func (s *sentFrames) clear() {
	s.mu.Lock()
	s.m = nil
	s.order = nil
	s.head = 0
	s.bytes = 0
	s.mu.Unlock()
}

// evictLocked enforces the entry and byte caps FIFO-wise. The order slice
// uses a head index instead of reslicing so the backing array does not
// retain consumed keys, and compacts once the dead prefix dominates.
func (s *sentFrames) evictLocked() {
	for (len(s.order)-s.head > sentMaxEntries || s.bytes > sentMaxBytes) && s.head < len(s.order) {
		k := s.order[s.head]
		s.order[s.head] = ""
		s.head++
		if e, ok := s.m[k]; ok { // absent when take consumed it
			delete(s.m, k)
			s.bytes -= len(e.frame) + len(e.plain)
		}
	}
	switch {
	case s.head == len(s.order):
		s.order = s.order[:0]
		s.head = 0
	case s.head >= 64 && s.head > len(s.order)/2:
		n := copy(s.order, s.order[s.head:])
		clear(s.order[n:])
		s.order = s.order[:n]
		s.head = 0
	}
}

// sealState is one group's sealing snapshot: the installed suite pinned to
// its key epoch. Immutable after publication — rekeys publish a new one.
// firstSend latches the once-per-epoch first-send trace event.
type sealState struct {
	epoch     uint64
	suite     crypt.Suite
	firstSend atomic.Bool
}

// Option configures a Conn.
type Option func(*Conn)

// WithDHGroup selects the Diffie-Hellman group (default: the paper's
// 512-bit modulus).
func WithDHGroup(g *dh.Group) Option {
	return func(c *Conn) { c.dhGroup = g }
}

// WithCounter attaches an exponentiation counter shared by all of this
// connection's key agreement engines (for regenerating Tables 2-4).
func WithCounter(ct *dh.Counter) Option {
	return func(c *Conn) { c.counter = ct }
}

// WithAutoRefresh re-keys every group this member controls once its key is
// older than the interval — the paper's periodic key refresh. Zero
// disables it (the default).
func WithAutoRefresh(interval time.Duration) Option {
	return func(c *Conn) { c.autoRefresh = interval }
}

// WithObs attaches an observability scope: the flush and secure layers
// record their causal trace events on its recorder and their latency
// histograms in its registry. Without this option the connection creates a
// private scope, reachable via Obs.
func WithObs(sc *obs.Scope) Option {
	return func(c *Conn) { c.obs = sc }
}

// New wraps a spread client (in-process or remote) in the secure group
// layer and starts its event loop. The caller must consume Events.
func New(client spread.Endpoint, opts ...Option) *Conn {
	c := &Conn{
		dhGroup: dh.Group512,
		reqs:    make(chan func(), 256),
		events:  make(chan Event, 8192),
		done:    make(chan struct{}),
		groups:  make(map[string]*groupCtx),
		sealers: make(map[string]*atomic.Pointer[sealState]),
	}
	for _, o := range opts {
		o(c)
	}
	if c.obs == nil {
		c.obs = obs.NewScope(client.Name(), "core")
	}
	c.log = obs.L("core")
	c.staleDropped = c.obs.Reg.Counter("core_stale_frames_dropped")
	c.pendingDiscarded = c.obs.Reg.Counter("core_pending_discarded")
	if c.counter != nil {
		c.counter.MirrorTo(c.obs.Reg)
	}
	c.f = flush.WrapScope(client, c.obs)
	go c.run()
	return c
}

// Obs returns the connection's observability scope: its causal trace
// recorder and metrics registry (rekey latency, flush rounds, exp counts).
func (c *Conn) Obs() *obs.Scope { return c.obs }

// Name returns the member name ("user#daemon").
func (c *Conn) Name() string { return c.f.Name() }

// Events returns the secure event stream; it closes when the connection
// ends.
func (c *Conn) Events() <-chan Event { return c.events }

// do runs fn on the event loop.
func (c *Conn) do(fn func()) error {
	done := make(chan struct{})
	select {
	case c.reqs <- func() { fn(); close(done) }:
	case <-c.done:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// Join joins a secure group using the named key agreement protocol
// ("cliques" or "ckd") and cipher suite (crypt.SuiteBlowfish etc.). The
// SecureView event announces when the group is usable.
func (c *Conn) Join(group, protoName, suiteName string) error {
	var err error
	doErr := c.do(func() {
		if _, dup := c.groups[group]; dup {
			err = fmt.Errorf("core: already joined %s", group)
			return
		}
		g := &groupCtx{
			conn:      c,
			name:      group,
			protoName: protoName,
			suiteName: suiteName,
			pubkeys:   make(map[string]*big.Int),
		}
		// Long-term keys are per group context, so each group resolves
		// peers through its own announcement directory.
		dir := kga.DirectoryFunc(func(name string) (*big.Int, error) {
			pub, ok := g.pubkeys[name]
			if !ok {
				return nil, fmt.Errorf("core: no public key announced by %s in %s", name, group)
			}
			return pub, nil
		})
		var proto kga.Protocol
		proto, err = kga.New(protoName, c.Name(), c.dhGroup, dir, c.counter)
		if err != nil {
			return
		}
		// Protocol engines that support it report their state-machine
		// transitions into the causal trace. The callback runs on the
		// event loop (engines are loop-driven), so it may read the group
		// context: transitions are stamped with the driving view, the
		// committed key epoch, and a per-rekey round number, which is what
		// lets the analyzer attribute KGA rounds to one rekey across
		// nodes.
		if ts, ok := proto.(kga.TraceSetter); ok {
			sc, grp, comp := c.obs, group, protoName
			ts.SetTrace(func(kind, detail string) {
				g.kgaSeq++
				viewStr := ""
				if g.view != nil {
					viewStr = fmt.Sprintf("%v", g.view.ID)
				}
				var epoch uint64
				if k := g.proto.Key(); k != nil {
					epoch = k.Epoch
				}
				sc.Record(obs.Event{Comp: comp, Kind: "kga-" + kind,
					Group: grp, View: viewStr, KeyEpoch: epoch,
					Detail: fmt.Sprintf("round=%d %s", g.kgaSeq, detail)})
			})
		}
		// Engines whose wire bodies carry HLC extensions get a causal
		// hook under the protocol's component name.
		if cs, ok := proto.(kga.CausalSetter); ok {
			cs.SetCausal(&kga.Causal{Scope: c.obs, Event: obs.Event{Comp: protoName, Group: group}})
		}
		g.proto = proto
		c.groups[group] = g
		c.sealMu.Lock()
		c.sealers[group] = &atomic.Pointer[sealState]{}
		c.sealMu.Unlock()
	})
	if doErr != nil {
		return doErr
	}
	if err != nil {
		return err
	}
	if err := c.f.Join(group); err != nil {
		_ = c.do(func() {
			delete(c.groups, group)
			c.dropSealer(group)
		})
		return err
	}
	return nil
}

// publishSealer installs a group's sealing snapshot for edge senders; a nil
// suite revokes it (senders fail ErrNotSecured until the next key installs).
// Runs on the event loop.
func (c *Conn) publishSealer(group string, epoch uint64, suite crypt.Suite) {
	c.sealMu.RLock()
	holder := c.sealers[group]
	c.sealMu.RUnlock()
	if holder == nil {
		return
	}
	if suite == nil {
		holder.Store(nil)
		return
	}
	holder.Store(&sealState{epoch: epoch, suite: suite})
}

func (c *Conn) dropSealer(group string) {
	c.sealMu.Lock()
	delete(c.sealers, group)
	c.sealMu.Unlock()
	c.sent.clear()
}

// Leave voluntarily leaves a group; a SelfLeave event confirms it.
func (c *Conn) Leave(group string) error {
	return c.f.Leave(group)
}

// Multicast encrypts and authenticates data under the group's current
// secret and sends it to the whole group.
//
// Sealing runs on the caller's goroutine against the epoch-pinned key
// snapshot published by the event loop — no loop round-trip per message,
// so senders pipeline against delivery instead of running in lockstep with
// it. A rekey racing this send is resolved by the receiver: the envelope
// carries the sealing epoch, and epoch-tagged open buffers frames from a
// newer key and warns on frames from an older one (exactly the window that
// existed when sealing ran on the loop, since the flush send below was
// already outside it).
func (c *Conn) Multicast(group string, data []byte) error {
	c.sealMu.RLock()
	holder := c.sealers[group]
	c.sealMu.RUnlock()
	if holder == nil {
		return fmt.Errorf("%w: %s", ErrNoGroup, group)
	}
	st := holder.Load()
	if st == nil {
		return fmt.Errorf("%w: %s", ErrNotSecured, group)
	}
	// Seal into a pooled buffer: the envelope encoder copies the frame
	// into its own pooled output, so this buffer recycles immediately.
	frame, err := crypt.SealAppend(st.suite, wirecodec.GetBuf(), data)
	if err != nil {
		wirecodec.PutBuf(frame)
		return err
	}
	// The first encrypted send under a fresh key closes the causal chain:
	// view -> flush -> key agreement -> key install -> first send.
	if st.firstSend.CompareAndSwap(false, true) {
		c.obs.Record(obs.Event{Comp: "core", Kind: "first-send",
			Group: group, KeyEpoch: st.epoch,
			Detail: fmt.Sprintf("bytes=%d", len(data))})
	}
	enc, err := encodeEnvelope(&envelope{Kind: envData, Epoch: st.epoch, Frame: frame},
		c.envClockExt())
	if err != nil {
		wirecodec.PutBuf(frame)
		return err
	}
	// Remember the sealed frame so our own AGREED loopback delivery can
	// reuse the plaintext instead of opening bytes we just produced.
	c.sent.remember(frame, data)
	wirecodec.PutBuf(frame)
	return c.f.Multicast(spread.Agreed, group, enc)
}

// KeyRefresh requests a fresh group secret without a membership change. A
// non-controller forwards the request to the current controller, as in
// CLQ_API's refresh operation.
func (c *Conn) KeyRefresh(group string) error {
	var (
		fwd     bool
		ctrl    string
		loopErr error
	)
	if doErr := c.do(func() {
		g, ok := c.groups[group]
		if !ok {
			loopErr = fmt.Errorf("%w: %s", ErrNoGroup, group)
			return
		}
		if !g.secured() {
			loopErr = fmt.Errorf("%w: %s", ErrNotSecured, group)
			return
		}
		if g.proto.Controller() == c.Name() {
			g.refreshWanted = true
			g.maybeStartRefresh()
			return
		}
		fwd = true
		ctrl = g.proto.Controller()
	}); doErr != nil {
		return doErr
	}
	if loopErr != nil {
		return loopErr
	}
	if !fwd {
		return nil
	}
	enc, err := encodeEnvelope(&envelope{Kind: envRefreshRequest},
		c.envSendExt(group, envRefreshRequest))
	if err != nil {
		return err
	}
	return c.f.Unicast(spread.FIFO, group, ctrl, enc)
}

// GroupState reports the secured membership and epoch of a group.
func (c *Conn) GroupState(group string) (members []string, epoch uint64, secured bool) {
	_ = c.do(func() {
		g, ok := c.groups[group]
		if !ok || g.key == nil {
			return
		}
		members = slices.Clone(g.key.Members)
		epoch = g.key.Epoch
		secured = g.secured()
	})
	return members, epoch, secured
}

// KeyConfirmation reports the current key epoch and key-confirmation
// digest of a secured group: the value announced during state alignment.
// Members hold the same group secret iff their digests match, without
// either revealing the secret — the handle external invariant checkers
// (the chaos harness) compare cluster-wide.
func (c *Conn) KeyConfirmation(group string) (epoch uint64, digest []byte, ok bool) {
	_ = c.do(func() {
		g, present := c.groups[group]
		if !present || !g.secured() {
			return
		}
		epoch = g.key.Epoch
		digest = keyDigest(g.key.Bytes(), g.key.Epoch)
		ok = true
	})
	return epoch, digest, ok
}

// Disconnect tears the connection down.
func (c *Conn) Disconnect() error {
	return c.f.Disconnect()
}

// run is the secure layer's event-handling loop (the paper's core design).
func (c *Conn) run() {
	defer close(c.done)
	defer close(c.events)
	var refreshTick <-chan time.Time
	if c.autoRefresh > 0 {
		t := time.NewTicker(c.autoRefresh / 4)
		defer t.Stop()
		refreshTick = t.C
	}
	for {
		select {
		case fn := <-c.reqs:
			fn()
		case <-refreshTick:
			c.autoRefreshTick()
		case ev, ok := <-c.f.Events():
			if !ok {
				return
			}
			c.dispatch(ev)
		}
	}
}

// autoRefreshTick triggers a refresh in every secured group this member
// controls whose key has aged past the interval.
func (c *Conn) autoRefreshTick() {
	now := time.Now()
	for _, g := range c.groups {
		if !g.secured() || g.proto.Controller() != c.Name() {
			continue
		}
		if now.Sub(g.keyBorn) < c.autoRefresh {
			continue
		}
		g.refreshWanted = true
		g.maybeStartRefresh()
	}
}

func (c *Conn) emit(ev Event) {
	c.events <- ev
}

func (c *Conn) warn(group string, err error) {
	c.log.Warnf("%s: %s: %v", c.Name(), group, err)
	select {
	case c.events <- Warning{Group: group, Err: err}:
	default:
		// Warnings are advisory; never stall the loop for them.
	}
}

func (c *Conn) dispatch(ev flush.Event) {
	switch e := ev.(type) {
	case flush.FlushRequest:
		// Per the paper (Section 5.4), the layer cannot know whether
		// the pending change is safe to defer, so it acknowledges
		// immediately; an interrupted agreement is resolved by the
		// alignment check in the next view.
		if err := c.f.FlushOK(e.Group); err != nil && !errors.Is(err, flush.ErrNotPending) {
			// A stale request (already superseded or completed) is
			// expected under cascades and not worth a warning.
			c.warn(e.Group, fmt.Errorf("flush ok: %w", err))
		}
	case flush.View:
		if g, ok := c.groups[e.Info.Group]; ok {
			g.onView(e.Info)
		}
	case flush.SelfLeave:
		if g, ok := c.groups[e.Group]; ok {
			g.proto.Dissolve()
			delete(c.groups, e.Group)
			c.dropSealer(e.Group)
			c.emit(SelfLeave{Group: e.Group})
		}
	case flush.Data:
		env, ext, err := decodeEnvelope(e.Data)
		if err != nil {
			c.warn(e.Group, err)
			return
		}
		ext.Observe(c.obs, envEvent(e.Group, env.Kind), e.Sender)
		if g, ok := c.groups[e.Group]; ok {
			g.onEnvelope(e.Sender, env)
		}
	}
}
