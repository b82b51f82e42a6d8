package main

import (
	"fmt"
	"time"
)

// A closed loop keeps at most creditMessages messages, and at most
// creditBytes of payload, sent but not yet delivered at the slowest member:
// deep enough that the pipeline, not the AGREED ordering wait, limits the
// rate (256 x 64 B messages in flight run at window / ordering wait, about
// 55k msgs/s whatever the per-message cost), far below the daemons'
// slow-client limit of 4096 queued events.
const (
	creditMessages = 1024
	creditBytes    = 2 << 20
)

// window is the closed-loop credit for the group's payload size.
func (p *msgPhase) window() uint64 {
	return uint64(min(p.g.credit, creditBytes/p.g.gen.size))
}

// msgPhase is one measured interval of message traffic on a group, cut
// into segments.
type msgPhase struct {
	g       *group
	sent    []uint64 // next sequence number, per sender
	opsPerS []float64
	latMs   [][]float64 // per segment: stamp to delivery at the last member
	lagUs   []int32     // open loop: how late each send left the generator
	elapsed time.Duration
	// sendUs is the time blocked in Send, from one call in sendSample.
	sendUs   float64
	sendN    int
	sendSum  int64
	sendSpan string
}

// sendSample is how many sends pass per timed one.
const sendSample = 16

func newMsgPhase(g *group) *msgPhase {
	return &msgPhase{g: g, sent: make([]uint64, g.senders), sendSpan: "send:" + g.stack.name}
}

// begin resets the receivers' samples and starts the segment clock. The
// group must be quiescent.
func (p *msgPhase) begin(nseg int, segLen time.Duration) int64 {
	g := p.g
	for _, r := range g.recv {
		r.lat = newSamples(nseg, g.senders)
	}
	g.clock.nseg, g.clock.segLen = nseg, int64(segLen)
	start := nowNs()
	g.clock.start.Store(start)
	p.opsPerS, p.lagUs = p.opsPerS[:0], p.lagUs[:0]
	p.sendSum, p.sendN = 0, 0
	return start
}

// send multicasts one stamped payload from a sender, timing one call in
// sendSample and tracing one operation in traceSample.
func (p *msgPhase) send(sender int, stamp int64) error {
	g := p.g
	seq := p.sent[sender]
	payload := g.gen.next(uint32(sender), seq, stamp)
	timed := seq%sendSample == 0
	var t0 int64
	var root int32
	if timed {
		t0 = nowNs()
		if g.tr != nil && seq%traceSample == 0 {
			root = g.tr.root("op", opID(uint32(sender), seq), stamp)
		}
	}
	if err := g.members[sender].Send(g.name, payload); err != nil {
		return fmt.Errorf("%s send %d: %w", g.stack.name, seq, err)
	}
	if timed {
		t1 := nowNs()
		p.sendSum += t1 - t0
		p.sendN++
		g.tr.add(root, p.sendSpan, opID(uint32(sender), seq), t0, t1)
	}
	p.sent[sender] = seq + 1
	return nil
}

func (p *msgPhase) totalSent() uint64 {
	var n uint64
	for _, s := range p.sent {
		n += s
	}
	return n
}

// settle waits until everything sent has been delivered everywhere.
func (p *msgPhase) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for p.g.completed() < p.totalSent() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d of %d messages not delivered everywhere after %v",
				p.g.stack.name, p.totalSent()-p.g.completed(), p.totalSent(), timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// warm sends count messages closed-loop from sender 0 with no measurement
// running, and waits for them.
func (p *msgPhase) warm(count int) error {
	target := p.sent[0] + uint64(count)
	for p.sent[0] < target {
		if p.totalSent()-p.g.completed() >= p.window() {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if err := p.send(0, nowNs()); err != nil {
			return err
		}
	}
	return p.settle(10 * time.Second)
}

// finish closes the clock and collects the samples.
func (p *msgPhase) finish(start int64, nseg int) {
	g := p.g
	p.elapsed = time.Duration(nowNs() - start)
	g.clock.start.Store(0)
	// Every member delivers a sender's messages in the same order, so the
	// i-th sample of each member is the same message: an operation ends
	// when the slowest member has it.
	p.latMs = make([][]float64, nseg)
	for k := range p.latMs {
		for s := 0; s < g.senders; s++ {
			n := len(g.recv[0].lat[k][s])
			for _, r := range g.recv[1:] {
				n = min(n, len(r.lat[k][s]))
			}
			for i := 0; i < n; i++ {
				last := g.recv[0].lat[k][s][i]
				for _, r := range g.recv[1:] {
					last = max(last, r.lat[k][s][i])
				}
				p.latMs[k] = append(p.latMs[k], float64(last)*latUnit/1e6)
			}
		}
	}
	if p.sendN > 0 {
		p.sendUs = float64(p.sendSum) / float64(p.sendN) / 1000
	}
}

// segmentCounter turns the group's completed count into a rate per
// segment, over the time that really passed between the two readings.
type segmentCounter struct {
	g      *group
	bound  int64 // end of the current segment
	at     int64 // when done was read
	done   uint64
	segLen int64
}

// tick closes the current segment once now has passed its end.
func (c *segmentCounter) tick(now int64, rates []float64) []float64 {
	if now < c.bound {
		return rates
	}
	done := c.g.completed()
	rates = append(rates, float64(done-c.done)/(float64(now-c.at)/1e9))
	// A generator held up for more than a segment skips the ones it missed.
	c.bound += (now-c.bound)/c.segLen*c.segLen + c.segLen
	c.at, c.done = now, done
	return rates
}

// closedLoop measures nseg segments of saturating traffic from sender 0:
// the next message goes out as soon as fewer than the credit window are
// undelivered at the slowest member. An operation is one message delivered
// at every member.
func (p *msgPhase) closedLoop(nseg int, segLen time.Duration) error {
	g := p.g
	start := p.begin(nseg, segLen)
	end := start + int64(nseg)*int64(segLen)
	seg := segmentCounter{g: g, bound: start + int64(segLen), at: start, done: g.completed(), segLen: int64(segLen)}
	for {
		now := nowNs()
		p.opsPerS = seg.tick(now, p.opsPerS)
		if now >= end {
			break
		}
		if p.totalSent()-g.completed() >= p.window() {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if err := p.send(0, now); err != nil {
			return err
		}
	}
	err := p.settle(10 * time.Second)
	p.finish(start, nseg)
	return err
}

// openLoop measures nseg segments of traffic on a fixed schedule: every
// sender is due one message each 1/rate seconds, staggered, whatever the
// system does. The payload carries the time the message was due, so a
// stall anywhere, the generator included, lengthens the latency of every
// message due during it.
func (p *msgPhase) openLoop(nseg int, segLen time.Duration, rate int) error {
	g := p.g
	start := p.begin(nseg, segLen)
	// Start on a whole interval from now so the first sends are not late.
	interval := int64(time.Second) / int64(rate)
	start += interval
	g.clock.start.Store(start)
	end := start + int64(nseg)*int64(segLen)
	seg := segmentCounter{g: g, bound: start + int64(segLen), at: start, done: g.completed(), segLen: int64(segLen)}
	for k := int64(0); ; k++ {
		var due int64
		for s := 0; s < g.senders; s++ {
			due = start + k*interval + int64(s)*interval/int64(g.senders)
			if due >= end {
				break
			}
			now := nowNs()
			if now < due {
				time.Sleep(time.Duration(due - now))
				now = nowNs()
			}
			p.lagUs = append(p.lagUs, int32((now-due)/1000))
			p.opsPerS = seg.tick(now, p.opsPerS)
			if err := p.send(s, due); err != nil {
				return err
			}
		}
		if due >= end {
			break
		}
	}
	err := p.settle(2 * deliveryTimeout)
	// The last boundary falls after the last send.
	p.opsPerS = seg.tick(end, p.opsPerS)
	p.finish(start, nseg)
	return err
}
