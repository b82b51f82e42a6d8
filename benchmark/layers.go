package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/securespread"
)

// perLayer are the metrics of single layers, all from the traced run, timed
// from outside around public calls or read from the program's own
// counters. Layer names are the module names. None has a bound: they say
// where an end-to-end change came from, they are not gated themselves.
var perLayer = []metricDef{
	{"dh.exp_us", "us", "lower", 0, "join/leave latency on rekey_churn; nothing elsewhere"},
	{"dh.powg_us", "us", "lower", 0, "join/leave latency on rekey_churn"},
	{"dh.inverse_us", "us", "lower", 0, "leave latency on rekey_churn (Cliques factor-out)"},
	{"dh.exp512_us", "us", "lower", 0, "setup_s on bulk_* and remote_paced (512-bit group formation)"},

	{"cliques.join_cpu_ms", "ms", "lower", 0, "latency_p50_ms on rekey_churn"},
	{"cliques.leave_cpu_ms", "ms", "lower", 0, "latency_p50_ms on rekey_churn"},
	{"cliques.join_exps", "count", "lower", 0, "latency_p50_ms on rekey_churn (exact)"},
	{"cliques.leave_exps", "count", "lower", 0, "latency_p50_ms on rekey_churn (exact)"},
	{"cliques.join_msgs", "count", "lower", 0, "latency_p50_ms on rekey_churn (exact)"},
	{"cliques.join_bytes", "count", "lower", 0, "latency_p50_ms on rekey_churn"},
	{"ckd.join_cpu_ms", "ms", "lower", 0, "none: the baseline protocol no workload keys with"},
	{"ckd.leave_cpu_ms", "ms", "lower", 0, "none: baseline"},
	{"ckd.join_exps", "count", "lower", 0, "none: baseline (exact)"},
	{"ckd.leave_exps", "count", "lower", 0, "none: baseline (exact)"},

	{"flush.join_ms", "ms", "lower", 0, "timer-bound floor of latency_p50_ms on rekey_churn; setup_s everywhere"},
	{"flush.leave_ms", "ms", "lower", 0, "timer-bound floor of latency_p50_ms on rekey_churn"},
	{"flush.round_p50_ms", "ms", "lower", 0, "latency_p50_ms on rekey_churn"},
	{"flush.agreed_ops_per_s", "1/s", "higher", 0, "ops_per_s on bulk_64 (ladder rung)"},
	{"flush.self_us_per_msg", "us", "lower", 0, "ops_per_s on bulk_64"},

	{"spread.join_ms", "ms", "lower", 0, "floor of flush.join_ms, so of latency_p50_ms on rekey_churn"},
	{"spread.agreed_ops_per_s", "1/s", "higher", 0, "ops_per_s on bulk_64 (ladder rung)"},
	{"spread.self_us_per_msg", "us", "lower", 0, "ops_per_s on bulk_64"},
	{"spread.multicast_call_us", "us", "lower", 0, "ops_per_s on bulk_64 (submit-ring backpressure)"},
	{"spread.wire_msgs_per_op", "count", "lower", 0, "ops_per_s on bulk_64"},
	{"spread.wire_bytes_per_op", "count", "lower", 0, "ops_per_s on bulk_8k"},
	{"spread.heartbeats_per_s", "1/s", "lower", 0, "ops_per_s on bulk_64; latency on remote_paced"},
	{"spread.nacks", "count", "lower", 0, "none expected: no workload loses frames"},
	{"spread.retransmits", "count", "lower", 0, "none expected: no workload loses frames"},
	{"spread.retained_max", "count", "lower", 0, "runtime.peak_heap_mb; ops_per_s on bulk_8k"},
	{"spread.order_wait_p50_ms", "ms", "lower", 0, "floor of latency_p50_ms on remote_paced"},
	{"spread.tcp_ops_per_s", "1/s", "higher", 0, "latency on remote_paced (in-process client on TCP daemons)"},
	{"spread.remote_saturation_ops_per_s", "1/s", "higher", 0, "latency_p90_ms on remote_paced; nothing on bulk_*"},
	{"spread.remote_self_us_per_msg", "us", "lower", 0, "latency_p90_ms on remote_paced (the gob client leg); nothing on bulk_*"},

	{"wirecodec.encode_data_ns", "ns", "lower", 0, "ops_per_s on bulk_64"},
	{"wirecodec.decode_data_ns", "ns", "lower", 0, "ops_per_s on bulk_64"},
	{"wirecodec.data_frame_bytes", "count", "lower", 0, "spread.wire_bytes_per_op (exact)"},

	{"transport.frame_append_ns", "ns", "lower", 0, "latency on remote_paced"},
	{"transport.frame_read_ns", "ns", "lower", 0, "latency on remote_paced"},
	{"transport.mem_ops_per_s", "1/s", "higher", 0, "ops_per_s on bulk_64 (bottom ladder rung)"},
	{"transport.mem_send_us", "us", "lower", 0, "ops_per_s on bulk_64"},
	{"transport.tcp_send_us", "us", "lower", 0, "latency on remote_paced"},
	{"transport.tcp_frames_per_s", "1/s", "higher", 0, "latency on remote_paced"},
	{"transport.sendq_dropped", "count", "lower", 0, "failed operations on remote_paced"},

	{"crypt.seal_us", "us", "lower", 0, "ops_per_s on bulk_8k (dominant); at most 5% on bulk_64"},
	{"crypt.open_us", "us", "lower", 0, "ops_per_s on bulk_8k"},
	{"crypt.seal_mb_per_s", "MB/s", "higher", 0, "ops_per_s on bulk_8k"},
	{"crypt.self_us_per_msg", "us", "lower", 0, "ops_per_s on bulk_8k"},
	{"blowfish.encrypt_block_ns", "ns", "lower", 0, "ops_per_s on bulk_8k"},
	{"blowfish.key_schedule_us", "us", "lower", 0, "the install step of latency_p50_ms on rekey_churn"},

	{"core.null_ops_per_s", "1/s", "higher", 0, "ops_per_s on bulk_64 (ladder rung)"},
	{"core.blowfish_ops_per_s", "1/s", "higher", 0, "ops_per_s on bulk_* (top ladder rung)"},
	{"core.self_us_per_msg", "us", "lower", 0, "ops_per_s on bulk_64"},
	{"core.join_self_view_ms", "ms", "lower", 0, "latency_p50_ms on rekey_churn"},
	{"core.join_last_view_ms", "ms", "lower", 0, "latency_p90_ms on rekey_churn (install skew over join_self_view_ms)"},
	{"core.first_send_ms", "ms", "lower", 0, "time to first traffic after a join on rekey_churn"},
	{"core.leave_ms", "ms", "lower", 0, "latency_p50_ms on rekey_churn"},

	{"obs.record_ns", "ns", "lower", 0, "ops_per_s on bulk_64"},
	{"obs.counter_inc_ns", "ns", "lower", 0, "ops_per_s on bulk_64"},
	{"obs.hist_observe_ns", "ns", "lower", 0, "latency_p50_ms on rekey_churn (negligible)"},

	{"runtime.allocs_per_op", "count", "lower", 0, "ops_per_s on bulk_64"},
	{"runtime.alloc_bytes_per_op", "count", "lower", 0, "ops_per_s on bulk_8k"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0, "latency_p90_ms on remote_paced"},
	{"runtime.peak_heap_mb", "MB", "lower", 0, "none gated; memory moved into set-up shows here"},
	{"runtime.goroutines_end", "count", "lower", 0, "none: leak check of the harness and the stack"},

	{"bench.sched_lag_p99_ms", "ms", "lower", 0, "the harness: how late the open-loop generator ran"},
	{"bench.calib_exp_us", "us", "lower", 0, "the machine: a fixed single-thread kernel"},
	{"bench.calib_spread", "ratio", "lower", 0, "the machine: quartile spread of that kernel over the run"},
	{"bench.trace_overhead_frac", "ratio", "lower", 0, "the harness: traced against untraced ops_per_s"},
}

// Shares of the run's seconds the traced run spends on its parts; the
// rest is set-up and the fixed-count kernel passes.
const (
	tracedInterval = 0.10 // each of 4 workload intervals, 2 traced, 2 not
	rungInterval   = 0.04 // each ladder rung
	ladderWarm     = 2000 // messages before a rung is measured
)

// layerRun collects what the traced run measures.
type layerRun struct {
	w       io.Writer
	wl      workloadDef
	gen     *generator // the workload's payloads
	probe   *generator // the 32 B probes of the rekey ladder
	seconds int
	m       map[string]value
	calib   []float64
	out     outcome
	dropped int64
}

func (lr *layerRun) set(name string, v float64, n int) { lr.m[name] = value{v, n} }

// account adds a phase's verification result to the run's.
func (lr *layerRun) account(o outcome) {
	lr.out.attempted += o.attempted
	lr.out.failed += o.failed
}

// share is the given share of the run's seconds.
func (lr *layerRun) share(f float64) time.Duration {
	return time.Duration(float64(lr.seconds) * f * float64(time.Second))
}

// runTraced reruns the workload with the span recorder on, then climbs the
// stack ladder and runs the kernel passes.
func runTraced(w io.Writer, wl workloadDef, seed uint64, seconds int, rep *report) (outcome, error) {
	lr := &layerRun{
		w: w, wl: wl, seconds: seconds, m: map[string]value{},
		gen:   newGenerator(seed, wl.size),
		probe: newGenerator(seed, 32),
	}
	lr.calibrate()
	steps := []func() error{
		func() error { return lr.tracedWorkload(rep) },
		lr.messageLadder,
		lr.rekeyLadder,
		lr.engines,
		lr.kernels,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return lr.out, err
		}
		lr.calibrate()
	}
	slices.Sort(lr.calib)
	lr.set("bench.calib_exp_us", percentile(lr.calib, 0.5), len(lr.calib))
	lr.set("bench.calib_spread", quartileSpread(lr.calib), len(lr.calib))
	lr.set("transport.sendq_dropped", float64(lr.dropped), 1)
	// Everything is torn down: what still runs is leaked.
	time.Sleep(50 * time.Millisecond)
	lr.set("runtime.goroutines_end", float64(runtime.NumGoroutine()), 1)
	lr.closure()
	lr.out.metrics = lr.m
	return lr.out, nil
}

// sampler polls a gauge-like reading until stopped and keeps the largest.
func sampleMax(read func() int64) (stop func() int64) {
	var (
		wg   sync.WaitGroup
		most int64
		done = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				most = max(most, read())
			case <-done:
				return
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return most
	}
}

// tracedWorkload measures the workload in four short intervals, tracing
// every other one, and reads the daemons' counters and the runtime's around
// them.
func (lr *layerRun) tracedWorkload(rep *report) error {
	wl := lr.wl
	tr := newTracer()
	st := secureStack(workloadProto, workloadSuite, wl.bits, wl.tcp)
	e, err := setUp(wl, st, lr.gen, lr.gen.offset(daemonCount))
	if err != nil {
		return err
	}
	defer e.top.stop()
	defer e.g.close()

	// The daemons' own counters, summed over daemons and wire kinds.
	counters := func() map[string]int64 {
		out := map[string]int64{}
		for name, v := range e.top.counters() {
			for _, prefix := range []string{
				"spread_wire_sent_msgs", "spread_wire_sent_bytes", "spread_wire_sent_msgs{heartbeat}",
				"spread_nacks_sent", "spread_msgs_retransmitted", "transport_sendq_dropped",
			} {
				if strings.HasPrefix(name, prefix) {
					out[prefix] += v
				}
			}
		}
		return out
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := counters()
	stopRetained := sampleMax(e.top.retained)
	t0 := time.Now()

	d := lr.share(tracedInterval)
	var rate [2][]float64 // untraced, traced
	var ops float64
	var lag, call []float64
	for i := 0; i < 4; i++ {
		traced := i%2 == 1
		e.g.tr = nil
		if traced {
			e.g.tr = tr
		}
		o, err := e.measure(d, 1)
		lr.account(o)
		if err != nil {
			stopRetained()
			return err
		}
		r := o.metrics["ops_per_s"]
		rate[i%2] = append(rate[i%2], r.v)
		ops += r.v * d.Seconds()
		if v, ok := o.metrics["bench.sched_lag_p99_ms"]; ok {
			lag = append(lag, v.v)
		}
		if v, ok := o.metrics["spread.multicast_call_us"]; ok {
			call = append(call, v.v)
		}
	}
	e.g.tr = nil
	elapsed := time.Since(t0).Seconds()
	retained := stopRetained()
	c1 := counters()
	runtime.ReadMemStats(&after)

	n := int(ops)
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	lr.set("spread.wire_msgs_per_op", delta("spread_wire_sent_msgs")/ops, n)
	lr.set("spread.wire_bytes_per_op", delta("spread_wire_sent_bytes")/ops, n)
	lr.set("spread.heartbeats_per_s", delta("spread_wire_sent_msgs{heartbeat}")/elapsed, int(delta("spread_wire_sent_msgs{heartbeat}")))
	lr.set("spread.nacks", delta("spread_nacks_sent"), 1)
	lr.set("spread.retransmits", delta("spread_msgs_retransmitted"), 1)
	lr.dropped += int64(delta("transport_sendq_dropped"))
	lr.set("spread.retained_max", float64(retained), int(elapsed*100))
	lr.set("spread.multicast_call_us", median(call), len(call))
	lr.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, n)
	lr.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops, n)
	lr.set("runtime.gc_pause_ms_per_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/elapsed, int(after.NumGC-before.NumGC))
	lr.set("runtime.peak_heap_mb", float64(after.HeapSys)/(1<<20), 1)
	lr.set("bench.trace_overhead_frac", 1-median(rate[1])/median(rate[0]), 4)
	fmt.Fprintf(lr.w, "workload intervals of %v, ops/s: untraced %.1f, traced %.1f\n", d, rate[0], rate[1])
	if len(lag) > 0 {
		lr.set("bench.sched_lag_p99_ms", median(lag), len(lag))
	}

	spans := tr.close()
	path, err := writeTrace(outDir, traceFile{
		Workload: wl.Name, Seed: rep.Seed, SampleEvery: traceSample,
		SelfUs: selfByName(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	rep.TraceFile = path
	fmt.Fprintf(lr.w, "trace: %d spans in %s\n", len(spans), path)
	return nil
}

// rung measures one rung of the message ladder: the workload's generated
// messages, closed loop, from one of three members of stack st.
func (lr *layerRun) rung(top *topology, st stack, name string) (*msgPhase, error) {
	g := newGroup(top, st, lr.gen, 1, nil)
	g.name = name
	defer g.close()
	if err := g.form(3, func(i int) int { return i }); err != nil {
		return nil, err
	}
	before := top.sendqDropped()
	p, err := lr.saturate(g)
	lr.dropped += top.sendqDropped() - before
	return p, err
}

func (lr *layerRun) saturate(g *group) (*msgPhase, error) {
	p := newMsgPhase(g)
	if err := p.warm(ladderWarm); err != nil {
		return nil, err
	}
	err := p.closedLoop(1, lr.share(rungInterval))
	lr.account(p.outcome())
	return p, err
}

// selfUs is the per-message cost a rung adds over the rung below it.
func selfUs(upper, lower float64) float64 { return 1e6/upper - 1e6/lower }

// messageLadder sends the workload's messages through the stack one layer
// at a time. A layer's self time per message is the difference between
// adjacent rungs.
func (lr *layerRun) messageLadder() error {
	rate := map[string]float64{}
	measure := func(key string, p *msgPhase, err error) error {
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", key, err)
		}
		rate[key] = p.opsPerS[0]
		return nil
	}

	for _, tcp := range []bool{false, true} {
		g, err := transportGroup(tcp, lr.gen)
		if err != nil {
			return err
		}
		tm := g.members[0].(*transportMember)
		before := tm.dropped()
		p, err := lr.saturate(g)
		lr.dropped += tm.dropped() - before
		g.close()
		key := "transport/mem"
		if tcp {
			key = "transport/tcp"
		}
		if err := measure(key, p, err); err != nil {
			return err
		}
		// One operation is one Send to each of the two other nodes.
		if tcp {
			lr.set("transport.tcp_send_us", p.sendUs/2, p.sendN)
			lr.set("transport.tcp_frames_per_s", 2*rate[key], int(p.totalSent()))
		} else {
			lr.set("transport.mem_send_us", p.sendUs/2, p.sendN)
			lr.set("transport.mem_ops_per_s", rate[key], int(p.totalSent()))
		}
	}

	mem, err := newTopology(false)
	if err != nil {
		return err
	}
	null := secureStack(workloadProto, securespread.SuiteNull, lr.wl.bits, false)
	blowfish := secureStack(workloadProto, workloadSuite, lr.wl.bits, false)
	for _, st := range []stack{spreadStack(false), flushStack(nil), null, blowfish} {
		p, err := lr.rung(mem, st, "ladder-"+st.name)
		if err := measure(st.name, p, err); err != nil {
			mem.stop()
			return err
		}
	}
	// Paced and unencrypted: what AGREED ordering alone makes a message wait.
	g := newGroup(mem, spreadStack(false), lr.gen, 3, nil)
	g.name = "order-wait"
	err = g.form(3, func(i int) int { return i })
	if err == nil {
		p := newMsgPhase(g)
		if err = p.openLoop(1, lr.share(rungInterval), 3000); err == nil {
			o := p.outcome()
			lr.account(o)
			lr.set("spread.order_wait_p50_ms", percentile(pooled(p.latMs), 0.5), len(p.latMs[0]))
			if _, ok := lr.m["bench.sched_lag_p99_ms"]; !ok {
				lr.set("bench.sched_lag_p99_ms", o.metrics["bench.sched_lag_p99_ms"].v, len(p.lagUs))
			}
		}
	}
	g.close()
	mem.stop()
	if err != nil {
		return fmt.Errorf("order-wait pass: %w", err)
	}

	tcp, err := newTopology(true)
	if err != nil {
		return err
	}
	for _, remote := range []bool{false, true} {
		st := spreadStack(remote)
		p, err := lr.rung(tcp, st, "ladder-tcp-"+st.name)
		if err := measure("tcp/"+st.name, p, err); err != nil {
			tcp.stop()
			return err
		}
	}
	tcp.stop()

	n := int(float64(lr.seconds) * rungInterval * rate["spread"])
	lr.set("spread.agreed_ops_per_s", rate["spread"], n)
	lr.set("spread.self_us_per_msg", selfUs(rate["spread"], rate["transport/mem"]), n)
	lr.set("flush.agreed_ops_per_s", rate["flush"], n)
	lr.set("flush.self_us_per_msg", selfUs(rate["flush"], rate["spread"]), n)
	lr.set("core.null_ops_per_s", rate[null.name], n)
	lr.set("core.self_us_per_msg", selfUs(rate[null.name], rate["flush"]), n)
	lr.set("core.blowfish_ops_per_s", rate[blowfish.name], n)
	lr.set("crypt.self_us_per_msg", selfUs(rate[blowfish.name], rate[null.name]), n)
	lr.set("spread.tcp_ops_per_s", rate["tcp/spread"], n)
	lr.set("spread.remote_saturation_ops_per_s", rate["tcp/spread/remote"], n)
	lr.set("spread.remote_self_us_per_msg", selfUs(rate["tcp/spread/remote"], rate["tcp/spread"]), n)

	fmt.Fprintf(lr.w, "stack ladder, %d B messages, closed loop, ops/s (each rung should be at most the one below it):\n", lr.wl.size)
	order := []string{"transport/mem", "spread", "flush", null.name, blowfish.name}
	for i, key := range order {
		note := ""
		if i > 0 && rate[key] > rate[order[i-1]]*(1+endToEnd[1].Bound) {
			note = "  RISES above the rung below by more than the ops_per_s bound"
		}
		fmt.Fprintf(lr.w, "  %-20s %12.0f%s\n", key, rate[key], note)
	}
	fmt.Fprintf(lr.w, "  %-20s %12.0f\n  %-20s %12.0f\n  %-20s %12.0f\n",
		"transport/tcp", rate["transport/tcp"], "tcp/spread", rate["tcp/spread"], "tcp/spread/remote", rate["tcp/spread/remote"])
	fmt.Fprintf(lr.w, "  blowfish-cbc against the null suite: %+.1f%% ops/s\n",
		100*(rate[blowfish.name]/rate[null.name]-1))
	return nil
}

// rekeyLadder runs the churn of rekey_churn (7 incumbents, one churner)
// at each rung: raw group join, View Synchrony with no key agreement, and
// the full stack at 1024 bit.
func (lr *layerRun) rekeyLadder() error {
	churnDef, _ := findWorkload("rekey_churn")
	cycles := max(6, lr.seconds/2)
	top, err := newTopology(false)
	if err != nil {
		return err
	}
	defer top.stop()
	sc := obs.NewScope("benchmark", "flush")
	full := secureStack(workloadProto, workloadSuite, churnDef.bits, false)
	for _, st := range []stack{spreadStack(false), flushStack(sc), full} {
		g := newGroup(top, st, lr.probe, 1, nil)
		g.name = "rekey-" + st.name
		err := g.form(churnDef.members, func(i int) int { return i % daemonCount })
		var done []cycle
		if err == nil {
			c := newChurn(g, churnDef.members, churnDef.members%daemonCount)
			if _, err = c.run(0, 2); err == nil {
				done, err = c.run(0, cycles)
			}
		}
		bad, _ := g.failures()
		lr.account(outcome{attempted: int64(2 * len(done)), failed: bad})
		g.close()
		if err != nil {
			return fmt.Errorf("rekey ladder rung %s: %w", st.name, err)
		}
		pick := func(f func(cycle) float64) float64 {
			v := make([]float64, len(done))
			for i, c := range done {
				v[i] = f(c)
			}
			return median(v)
		}
		join := pick(func(c cycle) float64 { return c.joinMs })
		leave := pick(func(c cycle) float64 { return c.leaveMs })
		switch st.name {
		case "spread":
			lr.set("spread.join_ms", join, len(done))
		case "flush":
			lr.set("flush.join_ms", join, len(done))
			lr.set("flush.leave_ms", leave, len(done))
			h := sc.Reg.Snapshot().Histograms["flush_round_duration"]
			lr.set("flush.round_p50_ms", h.Quantile(0.5), int(h.Count))
		default:
			lr.set("core.join_last_view_ms", join, len(done))
			lr.set("core.leave_ms", leave, len(done))
			lr.set("core.join_self_view_ms", pick(func(c cycle) float64 { return c.selfViewMs }), len(done))
			lr.set("core.first_send_ms", pick(func(c cycle) float64 { return c.firstSendMs }), len(done))
		}
	}
	return nil
}

// closure prints sums of per-layer numbers beside the end-to-end or
// ladder number they should explain. The README says why each gap exists.
func (lr *layerRun) closure() {
	v := func(name string) float64 { return lr.m[name].v }
	fmt.Fprintf(lr.w, "closure (parts beside the whole; gaps are explained in README.md):\n")
	fmt.Fprintf(lr.w, "  crypt.self_us_per_msg %.2f us  |  crypt.seal_us + 2 x crypt.open_us = %.2f us (%d B)\n",
		v("crypt.self_us_per_msg"), v("crypt.seal_us")+2*v("crypt.open_us"), lr.wl.size)
	fmt.Fprintf(lr.w, "  core.join_last_view_ms %.2f ms  |  flush.join_ms + cliques.join_cpu_ms = %.2f ms\n",
		v("core.join_last_view_ms"), v("flush.join_ms")+v("cliques.join_cpu_ms"))
	fmt.Fprintf(lr.w, "  core.leave_ms %.2f ms  |  flush.leave_ms + cliques.leave_cpu_ms = %.2f ms\n",
		v("core.leave_ms"), v("flush.leave_ms")+v("cliques.leave_cpu_ms"))
}
