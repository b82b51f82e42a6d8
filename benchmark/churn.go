package main

import (
	"fmt"
	"time"
)

// cycle is one join and one leave of the churning member.
type cycle struct {
	joinMs      float64 // Join call to the last member's view
	leaveMs     float64 // Leave call to the last incumbent's view
	selfViewMs  float64 // Join call to the joiner's own view
	firstSendMs float64 // Join call to the probe verified at every member
	busy        time.Duration
	end         int64
}

// churn drives membership changes on a group of n incumbents: a fresh
// member joins, proves the new key with a probe every member must deliver,
// leaves, and disconnects. Closed loop, with seeded think time before each
// change so cycles do not lock to the heartbeat phase.
type churn struct {
	g      *group
	n      int
	daemon int // where the churner connects
	count  uint64
	// sendNs and sends time the churner's probe multicasts.
	sendNs int64
	sends  int
	all    []int
	stay   []int
}

func newChurn(g *group, n, daemon int) *churn {
	c := &churn{g: g, n: n, daemon: daemon}
	g.dataNotes = true
	for i := 0; i <= n; i++ {
		c.all = append(c.all, i)
	}
	c.stay = c.all[:n]
	return c
}

// awaitProbe waits until every member has delivered probe seq intact.
func (c *churn) awaitProbe(seq uint64) (last int64, err error) {
	pending := len(c.all)
	timeout := time.NewTimer(rekeyTimeout)
	defer timeout.Stop()
	for pending > 0 {
		select {
		case n := <-c.g.notes:
			if n.kind != evData {
				continue
			}
			if !n.ok || n.seq != seq {
				return 0, fmt.Errorf("member %d did not deliver probe %d intact", n.member, seq)
			}
			pending--
			last = max(last, n.t)
		case <-timeout.C:
			return 0, fmt.Errorf("probe %d not delivered at %d members within %v", seq, pending, rekeyTimeout)
		}
	}
	return last, nil
}

func (c *churn) think() time.Duration {
	t0 := time.Now()
	time.Sleep(c.g.gen.think())
	return time.Since(t0)
}

func (c *churn) cycle() (cycle, error) {
	g, tr := c.g, c.g.tr
	seq := c.count
	c.count++
	begin := nowNs()
	root := tr.root("cycle", seq, begin)

	thought := c.think()
	t := nowNs()
	tr.add(root, "think", seq, begin, t)
	if err := g.connect(c.n, c.daemon, fmt.Sprintf("c%06d", seq)); err != nil {
		return cycle{}, err
	}
	churner := g.members[c.n]
	tJoin := nowNs()
	tr.add(root, "connect", seq, t, tJoin)

	if err := churner.Join(g.name); err != nil {
		return cycle{}, fmt.Errorf("join %d: %w", seq, err)
	}
	called := nowNs()
	views, err := g.awaitViews(c.n+1, c.all)
	if err != nil {
		return cycle{}, fmt.Errorf("join %d: %w", seq, err)
	}
	joined, selfView := maxOf(views), views[c.n]
	if root != 0 {
		join := tr.add(root, "join", seq, tJoin, joined)
		tr.add(join, "Join()", seq, tJoin, called)
		for i, v := range views {
			tr.add(join, "view@"+g.recv[i].name(), seq, tJoin, v)
		}
	}

	t = nowNs()
	if err := churner.Send(g.name, g.gen.next(0, seq, t)); err != nil {
		return cycle{}, fmt.Errorf("probe %d: %w", seq, err)
	}
	c.sendNs += nowNs() - t
	c.sends++
	proved, err := c.awaitProbe(seq)
	if err != nil {
		return cycle{}, err
	}
	tr.add(root, "probe", seq, t, proved)

	t = nowNs()
	thought += c.think()
	tLeave := nowNs()
	tr.add(root, "think", seq, t, tLeave)
	if err := churner.Leave(g.name); err != nil {
		return cycle{}, fmt.Errorf("leave %d: %w", seq, err)
	}
	called = nowNs()
	views, err = g.awaitViews(c.n, c.stay)
	if err != nil {
		return cycle{}, fmt.Errorf("leave %d: %w", seq, err)
	}
	left := maxOf(views)
	if root != 0 {
		leave := tr.add(root, "leave", seq, tLeave, left)
		tr.add(leave, "Leave()", seq, tLeave, called)
		for i, v := range views {
			tr.add(leave, "view@"+g.recv[i].name(), seq, tLeave, v)
		}
	}

	t = nowNs()
	if err := churner.Disconnect(); err != nil {
		return cycle{}, fmt.Errorf("disconnect %d: %w", seq, err)
	}
	end := nowNs()
	tr.add(root, "disconnect", seq, t, end)
	return cycle{
		joinMs:      float64(joined-tJoin) / 1e6,
		leaveMs:     float64(left-tLeave) / 1e6,
		selfViewMs:  float64(selfView-tJoin) / 1e6,
		firstSendMs: float64(proved-tJoin) / 1e6,
		busy:        time.Duration(end-begin) - thought,
		end:         end,
	}, nil
}

// run repeats cycles for exactly count cycles or, when count is 0, until d
// has passed, and returns them.
func (c *churn) run(d time.Duration, count int) ([]cycle, error) {
	var out []cycle
	stop := nowNs() + int64(d)
	for (count > 0 && len(out) < count) || (count == 0 && nowNs() < stop) {
		cy, err := c.cycle()
		if err != nil {
			return out, err
		}
		out = append(out, cy)
	}
	return out, nil
}

func maxOf(v []int64) int64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}
