package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Limits after which an operation counts as failed.
const (
	rekeyTimeout    = 10 * time.Second
	deliveryTimeout = time.Second
)

// note is what a member's drain goroutine tells the generator: a view it
// installed, or (when the group asks for data notes) a payload it verified.
type note struct {
	member  int
	kind    int
	members int    // evView
	epoch   uint64 // evView
	seq     uint64 // evData
	ok      bool   // evData: length, checksum and order held
	t       int64
}

// latUnit is the resolution latency samples are kept at, in nanoseconds:
// fine enough that a percentile keeps its digits, coarse enough that an
// int32 holds half a minute.
const latUnit = 16

// segClock cuts a measured interval into segments. A zero start means no
// measurement is running and receivers keep no samples.
type segClock struct {
	start  atomic.Int64
	segLen int64
	nseg   int
}

// segment returns the segment the stamp falls in, or -1.
func (c *segClock) segment(stamp int64) int {
	start := c.start.Load()
	if start == 0 || stamp < start {
		return -1
	}
	if k := int((stamp - start) / c.segLen); k < c.nseg {
		return k
	}
	return -1
}

// receiver verifies and times everything one member delivers. Its drain
// goroutine is its only writer; the generator reads the atomics while the
// run is live and the samples once the member is quiescent.
type receiver struct {
	g      *group
	idx    int
	next   []uint64 // next sequence number expected, per sender
	synced []bool   // a first message from the sender fixed next
	got    []atomic.Uint64
	bad    atomic.Int64 // wrong length, checksum, duplicate, gap, reordering
	late   atomic.Int64 // delivered past deliveryTimeout
	lat    [][][]int32  // stamp to receipt in latUnit, per segment and sender, in delivery order
}

func newReceiver(g *group, idx int) *receiver {
	return &receiver{
		g: g, idx: idx,
		next:   make([]uint64, g.senders),
		synced: make([]bool, g.senders),
		got:    make([]atomic.Uint64, g.senders),
		lat:    newSamples(g.clock.nseg, g.senders),
	}
}

func newSamples(nseg, senders int) [][][]int32 {
	lat := make([][][]int32, nseg)
	for k := range lat {
		lat[k] = make([][]int32, senders)
	}
	return lat
}

func (r *receiver) handle(ev event) {
	now := nowNs()
	g := r.g
	if ev.kind == evView {
		g.notes <- note{member: r.idx, kind: evView, members: ev.members, epoch: ev.epoch, t: now}
		return
	}
	p, ok := g.gen.check(ev.data)
	ok = ok && int(p.sender) < len(r.next)
	if ok {
		s := p.sender
		if r.synced[s] && p.seq != r.next[s] {
			ok = false
		}
		if !r.synced[s] || p.seq >= r.next[s] {
			r.synced[s], r.next[s] = true, p.seq+1
		}
	}
	if !ok {
		r.bad.Add(1)
	} else {
		lat := now - p.stamp
		if lat > int64(deliveryTimeout) {
			r.late.Add(1)
		}
		if k := g.clock.segment(p.stamp); k >= 0 {
			r.lat[k][p.sender] = append(r.lat[k][p.sender], int32(lat/latUnit))
		}
		if g.tr != nil && p.seq%traceSample == 0 {
			g.tr.addToOp("deliver@"+r.name(), opID(p.sender, p.seq), p.stamp, now)
		}
		// After the sample: a reader that sees the count sees the sample.
		r.got[p.sender].Add(1)
	}
	if g.dataNotes {
		g.notes <- note{member: r.idx, kind: evData, seq: p.seq, ok: ok, t: now}
	}
}

func (r *receiver) name() string { return fmt.Sprintf("m%d", r.idx) }

// opID folds a sender into a message's operation identifier.
func opID(sender uint32, seq uint64) uint64 { return uint64(sender)<<48 | seq }

// group is a set of members of one rung in one process group, each drained
// by its own goroutine.
type group struct {
	top     *topology
	stack   stack
	name    string
	gen     *generator
	senders int
	tr      *tracer

	members []member
	recv    []*receiver
	// notes carries every view (and, with dataNotes, every payload) a
	// member delivers. Sized so that drain goroutines never wait for the
	// generator within one rekey: members x views per change is far below.
	notes     chan note
	dataNotes bool
	clock     segClock
	wg        sync.WaitGroup
	// credit is the closed-loop window in messages (see creditMessages).
	credit int
	// retiredBad keeps the rejections of members since replaced.
	retiredBad int64
}

func newGroup(top *topology, st stack, gen *generator, senders int, tr *tracer) *group {
	return &group{
		top: top, stack: st, name: "bench", gen: gen, senders: senders, tr: tr,
		notes:  make(chan note, 4096),
		credit: creditMessages,
	}
}

// connect attaches member idx to a daemon and starts draining it. idx may
// replace an earlier, disconnected member (the churner of each cycle).
func (g *group) connect(idx, daemon int, user string) error {
	m, err := g.stack.connect(g.top, daemon, user)
	if err != nil {
		return fmt.Errorf("connect %s at %s: %w", user, g.stack.name, err)
	}
	r := newReceiver(g, idx)
	if idx == len(g.members) {
		g.members = append(g.members, m)
		g.recv = append(g.recv, r)
	} else {
		g.retiredBad += g.recv[idx].bad.Load()
		g.members[idx], g.recv[idx] = m, r
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		m.Drain(r.handle)
	}()
	return nil
}

// awaitViews waits until every listed member has installed a view of the
// given size, and checks that they all report it under one epoch. It
// returns the installation times in the order of who.
func (g *group) awaitViews(size int, who []int) ([]int64, error) {
	times := make([]int64, len(who))
	pending := len(who)
	var epoch uint64
	timeout := time.NewTimer(rekeyTimeout)
	defer timeout.Stop()
	for pending > 0 {
		select {
		case n := <-g.notes:
			if n.kind != evView || n.members != size {
				continue
			}
			for i, idx := range who {
				if idx == n.member && times[i] == 0 {
					times[i] = n.t
					pending--
					if epoch == 0 {
						epoch = n.epoch
					} else if n.epoch != epoch {
						return nil, fmt.Errorf("member %d installed the %d-member view at epoch %d, others at %d",
							idx, size, n.epoch, epoch)
					}
				}
			}
		case <-timeout.C:
			return nil, fmt.Errorf("%s: %d of %d members did not install a %d-member view within %v",
				g.stack.name, pending, len(who), size, rekeyTimeout)
		}
	}
	return times, nil
}

// form connects n members, member i at daemon place(i), joining one at a
// time and waiting for each view to install everywhere, as a group grows
// in practice.
func (g *group) form(n int, place func(i int) int) error {
	who := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if err := g.connect(i, place(i), fmt.Sprintf("m%02d", i)); err != nil {
			return err
		}
		if err := g.members[i].Join(g.name); err != nil {
			return err
		}
		who = append(who, i)
		if _, err := g.awaitViews(i+1, who); err != nil {
			return fmt.Errorf("grow to %d: %w", i+1, err)
		}
	}
	return nil
}

// close disconnects every member and waits for the drain goroutines.
func (g *group) close() {
	for _, m := range g.members {
		_ = m.Disconnect() // a member the daemon already dropped is fine
	}
	// Drain goroutines may be blocked handing over a last view.
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-g.notes:
		case <-done:
			return
		}
	}
}

// completed is how many messages every member has delivered.
func (g *group) completed() uint64 {
	var total uint64
	for s := 0; s < g.senders; s++ {
		least := g.recv[0].got[s].Load()
		for _, r := range g.recv[1:] {
			least = min(least, r.got[s].Load())
		}
		total += least
	}
	return total
}

// failures adds up what the receivers rejected.
func (g *group) failures() (bad, late int64) {
	bad = g.retiredBad
	for _, r := range g.recv {
		bad += r.bad.Load()
		late += r.late.Load()
	}
	return bad, late
}
