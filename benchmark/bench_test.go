package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSegmentMedianIgnoresOneWildSegment(t *testing.T) {
	mid := func(sorted []float64) float64 { return percentile(sorted, 0.5) }
	calm := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	wild := [][]float64{{1, 2, 3}, {4, 5, 6}, {700, 800, 900}}
	if got := segmentMedian(calm, mid); got != 5 {
		t.Errorf("calm: got %v, want 5", got)
	}
	if got := segmentMedian(wild, mid); got != 5 {
		t.Errorf("one slow segment moved the run's value to %v", got)
	}
	if got := segmentMedian([][]float64{{3, 1, 2}, nil}, mid); got != 2 {
		t.Errorf("empty segments must be skipped and samples sorted: got %v", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := quartileSpread(v); got != 1 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := newGenerator(7, 256), newGenerator(7, 256), newGenerator(8, 256)
	for seq := uint64(0); seq < 3*bodyPool; seq += 17 {
		pa := slices.Clone(a.next(2, seq, 12345))
		pb := slices.Clone(b.next(2, seq, 12345))
		pc := slices.Clone(c.next(2, seq, 12345))
		if !bytes.Equal(pa, pb) {
			t.Fatalf("seq %d: equal seeds gave different payloads", seq)
		}
		if bytes.Equal(pa, pc) {
			t.Fatalf("seq %d: different seeds gave the same payload", seq)
		}
		got, ok := a.check(pa)
		if !ok || got != (parsed{seq: seq, stamp: 12345, sender: 2}) {
			t.Fatalf("seq %d: check = %+v, %v", seq, got, ok)
		}
		if _, ok := c.check(pa); ok {
			t.Fatalf("seq %d: checksum is not keyed by the seed", seq)
		}
		pa[100] ^= 1
		if _, ok := a.check(pa); ok {
			t.Fatalf("seq %d: flipped bit not detected", seq)
		}
		if _, ok := a.check(pb[:200]); ok {
			t.Fatalf("seq %d: wrong length not detected", seq)
		}
	}
	for i := 0; i < 50; i++ {
		ta, tb := a.think(), b.think()
		if ta != tb || ta < 0 || ta >= 2*heartbeat {
			t.Fatalf("think times %v, %v: want equal and in [0, %v)", ta, tb, 2*heartbeat)
		}
	}
	if a.offset(3) != b.offset(3) {
		t.Fatal("placement differs for equal seeds")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 130}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 100 - 40 - 30, 2: 20, 3: 30 - 10, 4: 60, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerStretchesRootsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	if id := off.root("op", 1, 0); id != 0 {
		t.Fatal("nil tracer returned a span")
	}
	off.add(0, "x", 1, 0, 1)
	off.addToOp("x", 1, 0, 1)

	tr := newTracer()
	root := tr.root("op", 9, 100)
	tr.add(root, "send", 9, 100, 150)
	tr.addToOp("deliver@m1", 9, 100, 400)
	tr.addToOp("deliver@m2", 8, 100, 900) // unknown operation: dropped
	spans := tr.close()
	if len(spans) != 3 || spans[0].End != 400 {
		t.Fatalf("spans = %+v", spans)
	}
}

// busMember is an in-memory member: Send hands a copy to every member.
type busMember struct {
	bus  *bus
	ch   chan event
	once sync.Once
}

type bus struct {
	mu      sync.Mutex
	members []*busMember
	stallAt uint64 // the send with this sequence number blocks for stall
	stall   time.Duration
	sends   uint64
}

func (b *bus) stack() stack {
	return stack{name: "bus", connect: func(*topology, int, string) (member, error) {
		// Sized for a whole test: the bus never blocks a sender.
		return &busMember{bus: b, ch: make(chan event, 1<<14)}, nil
	}}
}

func (m *busMember) Name() string { return "bus" }

func (m *busMember) Disconnect() error {
	_ = m.Leave("")
	m.once.Do(func() { close(m.ch) })
	return nil
}

func (m *busMember) Leave(string) error {
	b := m.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	i := slices.Index(b.members, m)
	if i < 0 {
		return nil
	}
	b.members = slices.Delete(b.members, i, i+1)
	for _, peer := range b.members {
		peer.ch <- event{kind: evView, members: len(b.members), epoch: uint64(100 + len(b.members))}
	}
	return nil
}
func (m *busMember) Drain(fn func(event)) {
	for ev := range m.ch {
		fn(ev)
	}
}

func (m *busMember) Join(string) error {
	m.bus.mu.Lock()
	defer m.bus.mu.Unlock()
	m.bus.members = append(m.bus.members, m)
	for _, peer := range m.bus.members {
		peer.ch <- event{kind: evView, members: len(m.bus.members), epoch: uint64(len(m.bus.members))}
	}
	return nil
}

func (m *busMember) Send(_ string, p []byte) error {
	b := m.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sends == b.stallAt && b.stall > 0 {
		time.Sleep(b.stall)
	}
	b.sends++
	for _, peer := range b.members {
		peer.ch <- event{kind: evData, data: slices.Clone(p)}
	}
	return nil
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	b := &bus{stallAt: 50, stall: stall}
	g := newGroup(nil, b.stack(), newGenerator(1, 64), 2, nil)
	if err := g.form(2, func(int) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	p := newMsgPhase(g)
	// 2 senders x 1000/s for 0.3 s; the system stalls once for 60 ms.
	if err := p.openLoop(3, 100*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	all := pooled(p.latMs)
	if len(all) < 550 {
		t.Fatalf("only %d of ~600 operations measured", len(all))
	}
	// Every message due during the stall waited for it: about
	// 60 ms x 2000/s = 120 of them, the first the whole 60 ms.
	slow := 0
	for _, ms := range all {
		if ms > 5 {
			slow++
		}
	}
	if worst := all[len(all)-1]; worst < 0.8*float64(stall.Milliseconds()) {
		t.Errorf("worst latency %.1f ms does not show the %v stall", worst, stall)
	}
	if slow < 60 {
		t.Errorf("%d operations slower than 5 ms: messages due during the stall were timed from their send, not their due time", slow)
	}
	lag := slices.Max(p.lagUs)
	if lag < int32(0.8*float64(stall.Microseconds())) {
		t.Errorf("generator lag %d us does not show the stall", lag)
	}
	if o := p.outcome(); o.failed != 0 || o.attempted != 2*int64(p.totalSent()) {
		t.Errorf("outcome %+v", o)
	}
}

func TestClosedLoopCountsOperationsPerSegment(t *testing.T) {
	g := newGroup(nil, (&bus{}).stack(), newGenerator(1, 64), 1, nil)
	if err := g.form(3, func(int) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	p := newMsgPhase(g)
	if err := p.warm(500); err != nil {
		t.Fatal(err)
	}
	if err := p.closedLoop(4, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(p.opsPerS) != 4 || len(p.latMs) != 4 {
		t.Fatalf("segments: %d rates, %d latency sets", len(p.opsPerS), len(p.latMs))
	}
	var ops float64
	for _, r := range p.opsPerS {
		ops += r * 0.020
	}
	if sent := float64(p.totalSent() - 500); ops < 0.9*sent || ops > sent {
		t.Errorf("segment rates add up to %.0f operations, %v were sent", ops, sent)
	}
}

func TestReceiverRejectsDamagedStreams(t *testing.T) {
	gen := newGenerator(3, 64)
	g := newGroup(nil, stack{name: "none"}, gen, 1, nil)
	r := newReceiver(g, 0)
	deliver := func(seq uint64) { r.handle(event{kind: evData, data: slices.Clone(gen.next(0, seq, nowNs()))}) }
	for _, seq := range []uint64{5, 6, 7} { // the first message fixes the start
		deliver(seq)
	}
	if r.bad.Load() != 0 || r.got[0].Load() != 3 {
		t.Fatalf("clean stream: bad=%d got=%d", r.bad.Load(), r.got[0].Load())
	}
	deliver(7)  // duplicate
	deliver(9)  // gap
	deliver(8)  // reordered
	deliver(10) // in order again
	damaged := slices.Clone(gen.next(0, 11, nowNs()))
	damaged[30] ^= 0x40
	r.handle(event{kind: evData, data: damaged})
	r.handle(event{kind: evData, data: gen.next(0, 11, nowNs())[:32]})
	if r.bad.Load() != 5 {
		t.Errorf("bad = %d, want 5 (duplicate, gap, reordering, checksum, length)", r.bad.Load())
	}
	old := slices.Clone(gen.next(0, 11, nowNs()-int64(2*deliveryTimeout)))
	r.handle(event{kind: evData, data: old})
	if r.late.Load() != 1 {
		t.Errorf("late = %d, want 1", r.late.Load())
	}
}

func TestChurnCyclesOnTheBus(t *testing.T) {
	g := newGroup(nil, (&bus{}).stack(), newGenerator(1, 32), 1, nil)
	if err := g.form(2, func(int) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	tr := newTracer()
	g.tr = tr
	c := newChurn(g, 2, 0)
	t0 := time.Now()
	cycles, err := c.run(0, 3)
	elapsed := time.Since(t0)
	if err != nil || len(cycles) != 3 {
		t.Fatalf("cycles = %d, err = %v", len(cycles), err)
	}
	var busy time.Duration
	for _, cy := range cycles {
		if cy.joinMs <= 0 || cy.leaveMs <= 0 || cy.selfViewMs > cy.joinMs || cy.firstSendMs < cy.joinMs {
			t.Errorf("cycle %+v", cy)
		}
		busy += cy.busy
	}
	if busy >= elapsed {
		t.Errorf("busy time %v does not leave out think time (elapsed %v)", busy, elapsed)
	}
	if bad, _ := g.failures(); bad != 0 {
		t.Errorf("%d probes rejected", bad)
	}
	names := map[string]int{}
	for _, s := range tr.close() {
		names[s.Name]++
	}
	for _, want := range []string{"cycle", "think", "connect", "join", "Join()", "view@m2", "probe", "leave", "Leave()", "disconnect"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the trace: %v", want, names)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the program's definitions; regenerate it with -spec")
	}
}

func TestNamesAndLimitsOfTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("too many or too few entries for BENCHMARK.json")
	}
}
