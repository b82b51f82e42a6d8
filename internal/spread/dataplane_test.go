package spread

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- msgQueue -------------------------------------------------------------

func qInsert(q *msgQueue, m *dataMsg) {
	pos, found := q.search(m.Seq)
	if found {
		panic("duplicate insert")
	}
	q.insert(pos, m)
}

func TestMsgQueueOrderAndFind(t *testing.T) {
	q := &msgQueue{}
	rng := rand.New(rand.NewSource(1))
	seqs := rng.Perm(200)
	for _, s := range seqs {
		qInsert(q, &dataMsg{Seq: uint64(s + 1)})
	}
	if q.len() != 200 {
		t.Fatalf("len = %d, want 200", q.len())
	}
	for i := 0; i < q.len(); i++ {
		if got := q.at(i).Seq; got != uint64(i+1) {
			t.Fatalf("at(%d).Seq = %d, want %d", i, got, i+1)
		}
	}
	if m := q.find(137); m == nil || m.Seq != 137 {
		t.Fatalf("find(137) = %v", m)
	}
	if m := q.find(500); m != nil {
		t.Fatalf("find(500) = %v, want nil", m)
	}
}

// TestMsgQueueReleasesDelivered pins the memory-retention fix: a popped
// message must not stay reachable through the backing array (the old
// `q = q[1:]` reslice kept every delivered message pinned until the whole
// queue drained), and the dead prefix must be compacted away rather than
// growing without bound.
func TestMsgQueueReleasesDelivered(t *testing.T) {
	q := &msgQueue{}
	for i := 1; i <= 100; i++ {
		qInsert(q, &dataMsg{Seq: uint64(i)})
	}
	// Pop a few while head is still small: the vacated slots must be nil'd.
	for i := 0; i < 10; i++ {
		q.popFront()
	}
	if q.head == 0 {
		t.Fatal("expected a dead prefix before compaction kicks in")
	}
	for i := 0; i < q.head; i++ {
		if q.buf[i] != nil {
			t.Fatalf("buf[%d] still pins a popped message", i)
		}
	}
	// Pop past the compaction threshold: the dead prefix must be bounded.
	for i := 0; i < 80; i++ {
		q.popFront()
	}
	if q.head >= 32 && q.head > len(q.buf)/2 {
		t.Fatalf("dead prefix not compacted: head=%d len=%d", q.head, len(q.buf))
	}
	// The live tail survives compaction intact.
	if q.len() != 10 {
		t.Fatalf("len = %d, want 10", q.len())
	}
	for i := 0; i < q.len(); i++ {
		if got := q.at(i).Seq; got != uint64(91+i) {
			t.Fatalf("after compaction at(%d).Seq = %d, want %d", i, got, 91+i)
		}
	}
	// Full drain resets to an empty deque.
	for q.len() > 0 {
		q.popFront()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue retains state: head=%d len=%d", q.head, len(q.buf))
	}
}

// --- agreedHeap -----------------------------------------------------------

func TestAgreedHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h agreedHeap
	const n = 2000
	for i := 0; i < n; i++ {
		h.push(agreedEntry{
			lts:    uint64(rng.Intn(300)), // dense range forces LTS ties
			sender: fmt.Sprintf("d%02d", rng.Intn(10)),
			seq:    uint64(i),
		})
	}
	if h.len() != n {
		t.Fatalf("len = %d, want %d", h.len(), n)
	}
	prev := h.pop()
	for h.len() > 0 {
		cur := h.pop()
		if cur.less(prev) {
			t.Fatalf("heap popped (%d,%s) after (%d,%s)", cur.lts, cur.sender, prev.lts, prev.sender)
		}
		prev = cur
	}
}

// --- submitRing -----------------------------------------------------------

// TestSubmitRingConcurrentSenders floods a small ring from many goroutines
// while a consumer drains it, proving (under -race) that the push/drain
// handoff is sound, nothing is lost or duplicated, and each sender's
// payloads keep their FIFO order.
func TestSubmitRingConcurrentSenders(t *testing.T) {
	const (
		senders = 8
		each    = 500
	)
	r := newSubmitRing(64)
	wake := make(chan struct{}, 1)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			member := fmt.Sprintf("s%d", s)
			for i := 0; i < each; i++ {
				notify, err := r.push(payload{
					Kind:   payClientData,
					Member: member,
					Data:   []byte{byte(i), byte(i >> 8)},
				})
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if notify {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			}
		}(s)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := make(map[string]int)
	total := 0
	var batch []payload
	for total < senders*each {
		select {
		case <-wake:
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("drained %d/%d then stalled", total, senders*each)
		}
		batch = r.drain(batch[:0])
		for _, p := range batch {
			got := int(p.Data[0]) | int(p.Data[1])<<8
			if want := next[p.Member]; got != want {
				t.Fatalf("%s delivered %d, want %d (FIFO broken)", p.Member, got, want)
			}
			next[p.Member]++
			total++
		}
	}
	if extra := r.drain(nil); len(extra) != 0 {
		t.Fatalf("%d extra payloads after the count was reached", len(extra))
	}
}

// TestSubmitRingCloseWakesBlockedPusher proves close() releases a pusher
// blocked on a full ring with ErrDisconnected, and that payloads queued
// before the close stay drainable.
func TestSubmitRingCloseWakesBlockedPusher(t *testing.T) {
	r := newSubmitRing(2)
	if _, err := r.push(payload{Member: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.push(payload{Member: "b"}); err != nil {
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := r.push(payload{Member: "c"})
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the pusher block on the full ring
	r.close()
	select {
	case err := <-blocked:
		if err != ErrDisconnected {
			t.Fatalf("blocked push returned %v, want ErrDisconnected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake the blocked pusher")
	}
	if got := r.drain(nil); len(got) != 2 {
		t.Fatalf("drain after close returned %d payloads, want 2", len(got))
	}
	if _, err := r.push(payload{Member: "d"}); err != ErrDisconnected {
		t.Fatalf("push after close returned %v, want ErrDisconnected", err)
	}
}

// --- fanout sharing -------------------------------------------------------

// TestFanoutSharesPayload pins the zero-copy fanout invariant: every local
// member of a group receives the same delivered message backed by the same
// byte array — the daemon must not clone the payload per recipient.
func TestFanoutSharesPayload(t *testing.T) {
	c := newTestCluster(t, 2)
	sender, err := c.Daemons[1].Connect("s")
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]*Client, 2)
	for i := range recv {
		r, err := c.Daemons[0].Connect(fmt.Sprintf("r%d", i))
		if err != nil {
			t.Fatal(err)
		}
		recv[i] = r
		if err := r.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sender.Join("g"); err != nil {
		t.Fatal(err)
	}
	want := []string{recv[0].Name(), recv[1].Name(), sender.Name()}
	waitMembers(t, sender, "g", want)
	for _, r := range recv {
		waitMembers(t, r, "g", want)
	}

	if err := sender.Multicast(Agreed, "g", []byte("shared payload")); err != nil {
		t.Fatal(err)
	}
	a := nextData(t, recv[0], "g")
	b := nextData(t, recv[1], "g")
	if string(a.Data) != "shared payload" || string(b.Data) != "shared payload" {
		t.Fatalf("payloads = %q, %q", a.Data, b.Data)
	}
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("local recipients received distinct payload copies; fanout must share one backing array")
	}
}

// --- differential delivery order ------------------------------------------

// newDeliveryHarness builds a daemon with just the delivery-plane state
// initialized — no goroutine, and a recordNode for a transport — so tests
// can drive acceptData/deliverReady/drainAgreed directly and observe
// deliveries through deliverHook.
func newDeliveryHarness(name string, members []string, hook func(*dataMsg)) *Daemon {
	d := &Daemon{
		name:        name,
		node:        &recordNode{},
		view:        View{Members: members},
		lastHeard:   make(map[string]time.Time),
		groups:      make(map[string]*group),
		counters:    newStatsCounters(obs.NewRegistry()),
		deliverHook: hook,
	}
	d.resetMembers()
	return d
}

// refAgreedOrder is the pre-heap delivery algorithm, kept as the reference
// model: repeatedly scan every sender's undelivered head and deliver the
// global minimum in (LTS, sender) order.
func refAgreedOrder(bySender map[string][]*dataMsg) []msgKey {
	heads := make(map[string]int, len(bySender))
	var out []msgKey
	for {
		var best *dataMsg
		for sender, msgs := range bySender {
			i := heads[sender]
			if i >= len(msgs) {
				continue
			}
			m := msgs[i]
			if best == nil ||
				m.LTS < best.LTS ||
				(m.LTS == best.LTS && m.Sender < best.Sender) {
				best = m
			}
		}
		if best == nil {
			return out
		}
		heads[best.Sender]++
		out = append(out, best.key())
	}
}

// TestAgreedDeliveryMatchesScanReference is the differential property test
// for the heap-ordered delivery path: random multi-sender AGREED workloads
// (with deliberate LTS ties) fed through the real
// acceptData/deliverReady/drainAgreed machinery must deliver byte-identical
// (sender, seq) sequences to the old O(senders) scan algorithm.
func TestAgreedDeliveryMatchesScanReference(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		senders := make([]string, 2+rng.Intn(5))
		for i := range senders {
			senders[i] = fmt.Sprintf("d%02d", i)
		}

		// Per-sender streams: Seq contiguous from 1, LTS strictly
		// increasing per sender with deliberate cross-sender collisions.
		bySender := make(map[string][]*dataMsg, len(senders))
		var feed []*dataMsg
		var maxLTS uint64
		for _, s := range senders {
			n := 1 + rng.Intn(60)
			lts := uint64(rng.Intn(3))
			for seq := 1; seq <= n; seq++ {
				lts += 1 + uint64(rng.Intn(3))
				m := &dataMsg{
					Sender: s,
					Seq:    uint64(seq),
					LTS:    lts,
					P:      payload{Kind: payClientData, Group: "g", Member: s, Service: Agreed},
				}
				bySender[s] = append(bySender[s], m)
				feed = append(feed, m)
			}
			if lts > maxLTS {
				maxLTS = lts
			}
		}
		// Arrival order: random across senders, FIFO within one (the
		// transport links are FIFO; gap recovery is the NACK path's own
		// test territory).
		nextIdx := make(map[string]int)
		rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })

		var got []msgKey
		d := newDeliveryHarness("dX", senders, func(m *dataMsg) {
			got = append(got, m.key())
		})
		for range feed {
			s := feed[rng.Intn(len(feed))].Sender
			for nextIdx[s] >= len(bySender[s]) {
				s = senders[rng.Intn(len(senders))]
			}
			m := bySender[s][nextIdx[s]]
			nextIdx[s]++
			mb := d.member(m.Sender)
			d.acceptData(mb, m)
			d.deliverReady(mb)
			d.drainAgreed()
		}
		// Final horizon advance, as trailing heartbeats would do it. Every
		// message has arrived (seenLTS advanced along each sender's full
		// contiguous prefix), so moving to maxLTS crosses no hole.
		for _, mb := range d.members {
			mb.seenLTS = maxLTS
		}
		d.tryDeliver()

		want := refAgreedOrder(bySender)
		if len(got) != len(want) {
			t.Fatalf("trial %d: delivered %d messages, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: delivery[%d] = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}
