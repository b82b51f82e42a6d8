package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// setups per run; setup_s is their median.
const setups = 3

// env is a workload set up and warm, ready to be measured.
type env struct {
	w     workloadDef
	top   *topology
	g     *group
	phase *msgPhase // message workloads
	churn *churn    // rekey_churn
}

// setUp builds the topology, forms the group to its full secure view and
// warms it with a fixed number of operations, so that set-up time is real
// work and not one sample of a timer's phase.
func setUp(w workloadDef, st stack, gen *generator, offset int) (*env, error) {
	top, err := newTopology(w.tcp)
	if err != nil {
		return nil, err
	}
	senders := 1
	if w.Kind == kindPaced {
		senders = w.members
	}
	e := &env{w: w, top: top, g: newGroup(top, st, gen, senders, nil)}
	place := func(i int) int { return (i + offset) % daemonCount }
	if err := e.g.form(w.members, place); err != nil {
		e.tearDown()
		return nil, err
	}
	if w.Kind == kindChurn {
		e.churn = newChurn(e.g, w.members, place(w.members))
		_, err = e.churn.run(0, w.warm)
	} else {
		e.phase = newMsgPhase(e.g)
		err = e.phase.warm(w.warm)
	}
	if err != nil {
		e.tearDown()
		return nil, err
	}
	runtime.GC()
	return e, nil
}

func (e *env) tearDown() {
	e.g.close()
	e.top.stop()
}

// outcome is what one measured interval of a workload yields.
type outcome struct {
	metrics   map[string]value
	attempted int64
	failed    int64
}

// measure runs the workload for d, cut into nseg segments.
func (e *env) measure(d time.Duration, nseg int) (outcome, error) {
	segLen := d / time.Duration(nseg)
	switch e.w.Kind {
	case kindChurn:
		return e.measureChurn(d, nseg)
	case kindPaced:
		err := e.phase.openLoop(nseg, segLen, e.w.rate)
		return e.phase.outcome(), err
	default:
		err := e.phase.closedLoop(nseg, segLen)
		return e.phase.outcome(), err
	}
}

// outcome turns a finished message phase into metrics and a verification
// result: what the receivers rejected, what came late, what never came.
func (p *msgPhase) outcome() outcome {
	lat := p.latMs
	at := func(q float64) func([]float64) float64 {
		return func(sorted []float64) float64 { return percentile(sorted, q) }
	}
	deliveries := 0
	for _, seg := range lat {
		deliveries += len(seg)
	}
	perSeg := deliveries / max(len(lat), 1)
	m := map[string]value{
		"ops_per_s":      {median(p.opsPerS), int(p.g.completed())},
		"latency_p50_ms": {segmentMedian(lat, at(0.5)), perSeg},
		"latency_p90_ms": {segmentMedian(lat, at(0.9)), perSeg},
		"latency_p99_ms": {segmentMedian(lat, at(0.99)), perSeg},
	}
	if len(p.lagUs) > 0 {
		lag := make([]float64, len(p.lagUs))
		for i, us := range p.lagUs {
			lag[i] = float64(us) / 1000
		}
		slices.Sort(lag)
		m["bench.sched_lag_p99_ms"] = value{percentile(lag, 0.99), len(lag)}
	}
	m["spread.multicast_call_us"] = value{p.sendUs, p.sendN}

	out := outcome{metrics: m}
	// Deliveries expected: below spread the sender is not a receiver.
	out.attempted = int64(p.totalSent()) * int64(len(p.g.recv))
	bad, late := p.g.failures()
	var missing int64
	for _, r := range p.g.recv {
		for s := range r.got {
			missing += int64(p.sent[s] - r.got[s].Load())
		}
	}
	out.failed = min(bad+late+missing, out.attempted)
	return out
}

func (e *env) measureChurn(d time.Duration, nseg int) (outcome, error) {
	start := nowNs()
	cycles, err := e.churn.run(d, 0)
	segLen := int64(d) / int64(nseg)
	rate := make([]float64, 0, nseg)
	outage := make([][]float64, nseg)
	join := make([][]float64, nseg)
	leave := make([][]float64, nseg)
	busy := make([]time.Duration, nseg)
	for _, c := range cycles {
		// The cycle that crosses the end of the run counts in the last
		// segment.
		k := min(int((c.end-start)/segLen), nseg-1)
		outage[k] = append(outage[k], c.joinMs+c.leaveMs)
		join[k] = append(join[k], c.joinMs)
		leave[k] = append(leave[k], c.leaveMs)
		busy[k] += c.busy
	}
	for k := range outage {
		if busy[k] > 0 {
			rate = append(rate, 2*float64(len(outage[k]))/busy[k].Seconds())
		}
	}
	p50 := func(sorted []float64) float64 { return percentile(sorted, 0.5) }
	n := len(cycles)
	perSeg := n / nseg
	out := outcome{metrics: map[string]value{}}
	if n > 0 {
		out.metrics = map[string]value{
			"ops_per_s":      {median(rate), 2 * n},
			"latency_p50_ms": {segmentMedian(outage, p50), perSeg},
			// A segment holds too few cycles for a tail: pool the run.
			"latency_p90_ms": {percentile(pooled(outage), 0.9), n},
			"join_p50_ms":    {segmentMedian(join, p50), perSeg},
			"leave_p50_ms":   {segmentMedian(leave, p50), perSeg},
			"join_p90_ms":    {percentile(pooled(join), 0.9), n},
			"leave_p90_ms":   {percentile(pooled(leave), 0.9), n},
		}
	}
	out.metrics["spread.multicast_call_us"] = value{float64(e.churn.sendNs) / float64(max(e.churn.sends, 1)) / 1000, e.churn.sends}
	bad, _ := e.g.failures()
	out.attempted = 2 * int64(n)
	out.failed = bad
	if err != nil {
		// The change that did not complete.
		out.attempted++
		out.failed++
	}
	out.failed = min(out.failed, out.attempted)
	return out, err
}

// runUntraced is the run end-to-end metrics come from: set up several
// times, measure the last set-up, tear down.
func runUntraced(w workloadDef, seed uint64, seconds int) (outcome, error) {
	gen := newGenerator(seed, w.size)
	offset := gen.offset(daemonCount)
	st := secureStack(workloadProto, workloadSuite, w.bits, w.tcp)
	var e *env
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, st, gen, offset); err != nil {
			return outcome{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer e.tearDown()
	out, err := e.measure(time.Duration(seconds)*time.Second, seconds)
	if out.metrics != nil {
		out.metrics["setup_s"] = value{median(times), setups}
		out.metrics["failed_frac"] = value{float64(out.failed) / float64(max(out.attempted, 1)), int(out.attempted)}
	}
	return out, err
}
