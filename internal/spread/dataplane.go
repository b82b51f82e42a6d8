package spread

import (
	"slices"
	"sort"
	"sync"
)

// This file holds the steady-state data-plane structures introduced by the
// fast-path overhaul: the per-member message queue (a slice-backed deque
// that releases popped messages instead of retaining them through
// `q = q[1:]` reslicing), the (LTS, sender) min-heap that replaces the
// per-message scan over every sender's head for AGREED delivery, and the
// bounded per-client submit ring that replaces the per-operation `do()`
// rendezvous for client data.

// msgQueue is one member's pending or retained messages, sorted by Seq. It
// is a deque over a slice with an explicit head index: popFront nils the
// vacated slot (so a popped *dataMsg is reclaimable immediately, not pinned
// by the backing array) and compacts the dead prefix once it dominates the
// buffer.
type msgQueue struct {
	buf  []*dataMsg
	head int
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

// at returns the i-th live entry (0 = front).
func (q *msgQueue) at(i int) *dataMsg { return q.buf[q.head+i] }

func (q *msgQueue) front() *dataMsg { return q.buf[q.head] }

// search locates seq among the live entries: the insertion position and
// whether it is already present.
func (q *msgQueue) search(seq uint64) (int, bool) {
	live := q.buf[q.head:]
	return sort.Find(len(live), func(i int) int {
		switch {
		case seq < live[i].Seq:
			return -1
		case seq > live[i].Seq:
			return 1
		default:
			return 0
		}
	})
}

// find returns the live entry with the given seq, or nil.
func (q *msgQueue) find(seq uint64) *dataMsg {
	if pos, ok := q.search(seq); ok {
		return q.at(pos)
	}
	return nil
}

// push appends m, which must sort after every live entry.
func (q *msgQueue) push(m *dataMsg) { q.buf = append(q.buf, m) }

// insert places m at live position pos (from search).
func (q *msgQueue) insert(pos int, m *dataMsg) {
	q.buf = slices.Insert(q.buf, q.head+pos, m)
}

// popFront removes and returns the front entry. The slot is nil'd so the
// message is not kept reachable through the backing array, and the dead
// prefix is compacted away once it exceeds half the buffer.
func (q *msgQueue) popFront() *dataMsg {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= 32 && q.head > len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

// agreedEntry is one candidate AGREED head: the contiguous, ordered front
// of a member's pending queue, keyed by its delivery rank (the member's
// name breaks LTS ties).
type agreedEntry struct {
	lts    uint64
	sender string
	seq    uint64
	mb     *member
}

func (a agreedEntry) less(b agreedEntry) bool {
	if a.lts != b.lts {
		return a.lts < b.lts
	}
	return a.sender < b.sender
}

// agreedHeap is a hand-rolled binary min-heap of candidate AGREED heads in
// (LTS, sender) order. Entries are validated against the live queue state
// when popped (lazy deletion), so the heap never needs random removal.
type agreedHeap []agreedEntry

func (h agreedHeap) len() int          { return len(h) }
func (h agreedHeap) peek() agreedEntry { return h[0] }

func (h *agreedHeap) push(e agreedEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *agreedHeap) pop() agreedEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = agreedEntry{}
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l].less(s[min]) {
			min = l
		}
		if r < len(s) && s[r].less(s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// submitRing is the bounded per-client submit queue for data operations.
// Client goroutines push payloads (blocking while the ring is full — the
// backpressure that the synchronous do() rendezvous used to provide), and
// the daemon loop drains whole batches. `scheduled` dedups wake-ups: a
// pusher asks the daemon to schedule a drain only if none is outstanding.
type submitRing struct {
	mu        sync.Mutex
	notFull   sync.Cond
	buf       []payload
	head, n   int
	scheduled bool
	closed    bool
}

func newSubmitRing(capacity int) *submitRing {
	r := &submitRing{buf: make([]payload, capacity)}
	r.notFull.L = &r.mu
	return r
}

// push enqueues p, blocking while the ring is full. It reports whether the
// caller must notify the daemon (true exactly once per scheduled drain) and
// fails once the ring is closed.
func (r *submitRing) push(p payload) (notify bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == len(r.buf) && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		return false, ErrDisconnected
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
	notify = !r.scheduled
	r.scheduled = true
	return notify, nil
}

// drain appends every queued payload to dst, clears the scheduled mark (a
// push racing with the drain re-notifies), and wakes blocked pushers.
func (r *submitRing) drain(dst []payload) []payload {
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) % len(r.buf)
		dst = append(dst, r.buf[idx])
		r.buf[idx] = payload{}
	}
	r.head, r.n = 0, 0
	r.scheduled = false
	r.notFull.Broadcast()
	r.mu.Unlock()
	return dst
}

// close fails current and future pushes and wakes blocked pushers. Already
// queued payloads stay drainable (the disconnect path flushes them ahead of
// the departure announcements).
func (r *submitRing) close() {
	r.mu.Lock()
	r.closed = true
	r.notFull.Broadcast()
	r.mu.Unlock()
}
