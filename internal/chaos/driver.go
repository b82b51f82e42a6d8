package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/flight"
	"repro/internal/spread"
	"repro/internal/transport"
	"repro/internal/transport/faultnet"

	// The harness is self-contained: both key agreement modules are
	// registered so any schedule can replay under either protocol.
	_ "repro/internal/ckd"
	_ "repro/internal/cliques"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed selects the schedule; same seed, same schedule, same trace.
	Seed uint64
	// Transport selects the substrate: "mem" (default) replays over the
	// in-memory network; "tcp" replays over real TCP sockets through the
	// faultnet localhost proxy, so drops, partitions, crashes, and link
	// resets hit live kernel connections and the transport's redial
	// supervisor.
	Transport string
	// Daemons is the initial daemon count (default 3, the paper's
	// testbed).
	Daemons int
	// Events is the schedule length, not counting the initial joins
	// (default 30).
	Events int
	// MaxClients caps concurrent clients (default 6).
	MaxClients int
	// Proto is the key agreement module ("cliques" or "ckd").
	Proto string
	// Suite is the cipher suite (default Blowfish-CBC, as in the paper).
	Suite string
	// Weights biases the event mix; zero fields use DefaultWeights.
	Weights Weights
	// Daemon tunes the daemon protocol timers; the zero value uses the
	// fast test timers (10ms heartbeat, 150ms suspicion).
	Daemon spread.Config
	// Group names the secure group (default "chaos").
	Group string
	// ConvergeTimeout bounds the post-schedule quiescence wait
	// (default 60s).
	ConvergeTimeout time.Duration
	// FlightDir, when non-empty, makes any invariant violation freeze the
	// run as a flight-recorder bundle there: the analyze.Bundle schema
	// with one NodeSnapshot per node plus goroutine/heap profiles, which
	// `sgctrace report <bundle-dir>` reads. Defaults to the
	// SGC_FLIGHT_DIR environment variable, so CI can capture failed
	// chaos runs without touching the test code.
	FlightDir string

	// extraInvariant, when set (tests only — the field is unexported),
	// runs after the standard invariant checks; any strings it returns
	// are recorded as violations. It exists to exercise the causal-trace
	// dump path without waiting for a real invariant to fail.
	extraInvariant func(*driver) []string

	// clockSkew, when set (tests only), skews each named node's hybrid
	// logical clock view of physical time — the differential harness for
	// proving the causal order survives host clock disagreement.
	clockSkew func(node string) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Daemons == 0 {
		c.Daemons = 3
	}
	if c.Events == 0 {
		c.Events = 30
	}
	if c.MaxClients == 0 {
		c.MaxClients = 6
	}
	if c.Proto == "" {
		c.Proto = "cliques"
	}
	if c.Suite == "" {
		c.Suite = crypt.SuiteBlowfish
	}
	if c.Group == "" {
		c.Group = "chaos"
	}
	if c.Transport == "" {
		c.Transport = "mem"
	}
	if c.Daemon.Heartbeat == 0 {
		c.Daemon.Heartbeat = 10 * time.Millisecond
		c.Daemon.SuspectAfter = 150 * time.Millisecond
		if c.Transport == "tcp" {
			// Real sockets plus a relay hop per frame: give the failure
			// detector more slack so the chaos is the schedule's, not the
			// scheduler's.
			c.Daemon.Heartbeat = 15 * time.Millisecond
			c.Daemon.SuspectAfter = 400 * time.Millisecond
		}
		if raceEnabled {
			// The race detector slows the stack several-fold; with the
			// fast timers daemons false-suspect each other and the
			// cluster churns forever. The schedule itself is unchanged,
			// so traces stay seed-deterministic.
			c.Daemon.Heartbeat = 25 * time.Millisecond
			c.Daemon.SuspectAfter = 600 * time.Millisecond
		}
	}
	if c.ConvergeTimeout == 0 {
		c.ConvergeTimeout = 60 * time.Second
		if raceEnabled {
			c.ConvergeTimeout = 180 * time.Second
		}
	}
	if c.FlightDir == "" {
		c.FlightDir = os.Getenv("SGC_FLIGHT_DIR")
	}
	return c
}

// Result is the outcome of a chaos run.
type Result struct {
	Schedule *Schedule
	// Trace is the deterministic invariant trace: one line per checked
	// invariant. Same seed and same verdicts give the byte-identical
	// trace.
	Trace []string
	// Violations lists every invariant failure with its evidence; empty
	// means the run passed.
	Violations []string
	// Warnings counts secure-layer Warning events observed (advisory).
	Warnings int
	// FinalEpoch is the converged key epoch (0 if convergence failed).
	FinalEpoch uint64
	// Exps is the per-client exponentiation accounting by label.
	Exps map[string]map[string]int
	// Metrics is the run-wide metrics snapshot from the registry shared
	// by every client: rekey latency by membership-event class, flush
	// round durations, exponentiation counts.
	Metrics obs.Snapshot
	// Events is the merged, time-ordered causal trace of every node in
	// the run — daemons (including crashed ones), clients (including
	// departed ones), and the driver's schedule ring. Always populated,
	// so passing runs can be fed to the trace analyzer too.
	Events []obs.Event
	// CausalTrace is populated only when an invariant fails: one summary
	// line per node (its view id, KGA state, and last flush round), the
	// analyzer's anomaly report, then the merged, time-ordered causal
	// event trace of every node in the run.
	CausalTrace []string
	// FlightBundle is the directory of the flight-recorder bundle written
	// for a failed run; empty when the run passed or no FlightDir was
	// configured.
	FlightBundle string
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// TraceString renders the invariant trace as one block.
func (r *Result) TraceString() string { return strings.Join(r.Trace, "\n") + "\n" }

// viewRec is one SecureView observed by a client, in delivery order.
type viewRec struct {
	epoch   uint64
	digest  string
	members []string
	full    bool
}

// probeRec is one decrypted probe message observed by a client.
type probeRec struct {
	sender string
	epoch  uint64
	digest string
}

// client is one live secure session under the driver, with its recorder.
type client struct {
	name    string // schedule name ("c03")
	member  string // full member name ("c03#d01")
	conn    *core.Conn
	counter *dh.Counter
	obs     *obs.Scope

	mu       sync.Mutex
	views    []viewRec
	probes   []probeRec
	warnings int
	closed   bool
}

// record drains the session's events into the per-client log. Runs until
// the event channel closes (disconnect or daemon crash).
func (c *client) record() {
	for ev := range c.conn.Events() {
		switch e := ev.(type) {
		case core.SecureView:
			c.mu.Lock()
			c.views = append(c.views, viewRec{
				epoch:   e.Epoch,
				digest:  fmt.Sprintf("%x", e.KeyDigest),
				members: append([]string(nil), e.Members...),
				full:    e.FullRekey,
			})
			c.mu.Unlock()
		case core.Message:
			sender, epoch, digest, ok := parseProbe(e.Data)
			if !ok {
				continue
			}
			c.mu.Lock()
			c.probes = append(c.probes, probeRec{sender: sender, epoch: epoch, digest: digest})
			c.mu.Unlock()
		case core.Warning:
			c.mu.Lock()
			c.warnings++
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Probe payloads tag traffic with the sender's key state so the VS-safety
// invariant can be checked from the receiver side alone.
func probePayload(sender string, epoch uint64, digest []byte) []byte {
	return []byte(fmt.Sprintf("chaos-probe|%s|%d|%x", sender, epoch, digest))
}

func parseProbe(data []byte) (sender string, epoch uint64, digest string, ok bool) {
	parts := strings.Split(string(data), "|")
	if len(parts) != 4 || parts[0] != "chaos-probe" {
		return "", 0, "", false
	}
	if _, err := fmt.Sscanf(parts[2], "%d", &epoch); err != nil {
		return "", 0, "", false
	}
	return parts[1], epoch, parts[3], true
}

// driver executes a schedule against a live cluster.
type driver struct {
	cfg      Config
	sched    *Schedule
	net      *faultnet.Net // interface mode over mem, proxy mode over TCP
	daemons  map[string]*spread.Daemon
	clients  map[string]*client // by schedule name, alive only
	departed []*client          // disconnected/left/crashed clients (logs kept)

	// reg is the metrics registry shared by every client in the run, so
	// per-class rekey histograms aggregate cluster-wide. Recorders stay
	// per node: each client gets a private ring in its scope, and dead
	// holds the scopes of crashed daemons so their traces survive into
	// the violation dump.
	reg  *obs.Registry
	obs  *obs.Scope // the driver's own trace ring (schedule events)
	log  *obs.Logger
	dead []*obs.Scope
}

// Run generates the schedule for cfg.Seed, replays it, forces quiescence,
// and checks the global invariants. The returned Result carries the
// deterministic schedule and invariant trace plus any violations; the error
// is reserved for harness-level failures (a daemon that cannot start), not
// invariant violations.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sched := Generate(cfg.Seed, cfg.Daemons, cfg.Events, cfg.MaxClients, cfg.Weights)
	return Replay(cfg, sched)
}

// Replay runs a pre-generated schedule (Run's second half). It allows the
// differential check: the identical schedule replayed against different key
// agreement modules.
func Replay(cfg Config, sched *Schedule) (*Result, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	d := &driver{
		cfg:     cfg,
		sched:   sched,
		daemons: make(map[string]*spread.Daemon),
		clients: make(map[string]*client),
		reg:     reg,
		obs:     &obs.Scope{Node: "driver", Rec: obs.NewRecorder("driver", 0), Reg: reg, Log: obs.L("chaos")},
		log:     obs.L("chaos"),
	}
	switch cfg.Transport {
	case "mem":
		d.net = faultnet.New(transport.NewMemNetwork(), cfg.Seed)
	case "tcp":
		addrs := make(map[string]string, len(sched.Daemons))
		for _, name := range sched.Daemons {
			addrs[name] = "127.0.0.1:0"
		}
		tn := transport.NewTCPNetwork(addrs)
		tn.SetTuning(transport.TCPTuning{
			DialTimeout:  500 * time.Millisecond,
			WriteTimeout: time.Second,
			BackoffMin:   5 * time.Millisecond,
			BackoffMax:   100 * time.Millisecond,
			DownAfter:    3,
		})
		fn, err := faultnet.NewTCPProxy(tn, sched.Daemons, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("chaos: tcp proxy: %w", err)
		}
		d.net = fn
	default:
		return nil, fmt.Errorf("chaos: unknown transport %q", cfg.Transport)
	}
	defer d.stopAll()

	for _, name := range sched.Daemons {
		if err := d.startDaemon(name); err != nil {
			return nil, err
		}
	}
	if err := d.waitDaemons(sched.Daemons, 10*time.Second); err != nil {
		return nil, err
	}

	for _, ev := range sched.Events {
		d.log.Debugf("apply: %s", ev)
		d.obs.Record(obs.Event{Comp: "chaos", Kind: "fault", Detail: ev.String()})
		d.apply(ev)
		time.Sleep(ev.Settle)
	}

	// Quiescence: undo every standing fault, then let the cluster settle.
	d.net.Heal()
	d.net.SetDropRate(0)
	d.net.SetLatency(0)

	res := &Result{Schedule: sched, Exps: make(map[string]map[string]int)}
	converged := d.converge(res)
	if converged {
		d.finalProbes()
	}
	checkInvariants(d, res, converged)
	for _, c := range d.allClients() {
		c.mu.Lock()
		res.Warnings += c.warnings
		c.mu.Unlock()
		res.Exps[c.name] = c.counter.Snapshot()
	}
	res.Metrics = d.reg.Snapshot()
	res.Events = d.mergedEvents()
	if !res.Passed() {
		d.log.Errorf("seed=%d: %d invariant violation(s); dumping causal trace",
			cfg.Seed, len(res.Violations))
		res.CausalTrace = d.causalTrace(res.Events)
		if cfg.FlightDir != "" {
			if path, err := d.writeFlightBundle(res); err != nil {
				d.log.Errorf("seed=%d: flight bundle failed: %v", cfg.Seed, err)
			} else {
				res.FlightBundle = path
				d.log.Errorf("seed=%d: flight bundle written: %s", cfg.Seed, path)
			}
		}
	}
	return res, nil
}

// writeFlightBundle freezes the failed run as a flight-recorder bundle:
// one NodeSnapshot per daemon (crashed daemons keep their scopes) and per
// client, plus the driver node carrying the shared client registry and
// the schedule-event ring. `sgctrace report <dir>` reads the result like
// any collect bundle.
func (d *driver) writeFlightBundle(res *Result) (string, error) {
	b := &analyze.Bundle{
		CollectedAt: time.Now(),
		Group:       d.cfg.Group,
		Reason:      fmt.Sprintf("chaos invariant violation seed=%d", d.cfg.Seed),
		Alerts:      res.Violations,
	}
	snap := func(sc *obs.Scope, healthy bool, errMsg string, metrics obs.Snapshot) {
		b.Nodes = append(b.Nodes, analyze.NodeSnapshot{
			Node:          sc.Node,
			Healthy:       healthy,
			Error:         errMsg,
			Metrics:       metrics,
			TotalRecorded: sc.Rec.Total(),
			Events:        sc.Rec.Events(),
		})
	}
	for _, name := range d.aliveDaemons() {
		sc := d.daemons[name].Obs()
		snap(sc, true, "", sc.Reg.Snapshot())
	}
	for _, sc := range d.dead {
		snap(sc, false, "daemon crashed", sc.Reg.Snapshot())
	}
	for _, c := range d.allClients() {
		// Clients share one registry (already on the driver node below);
		// their snapshots carry only the per-client trace rings.
		snap(c.obs, true, "", obs.Snapshot{})
	}
	snap(d.obs, true, "", res.Metrics)
	state := map[string]any{
		"seed":       d.cfg.Seed,
		"transport":  d.cfg.Transport,
		"proto":      d.cfg.Proto,
		"schedule":   strings.Split(strings.TrimRight(d.sched.String(), "\n"), "\n"),
		"trace":      res.Trace,
		"violations": res.Violations,
	}
	return flight.WriteBundle(d.cfg.FlightDir, b, state, 0)
}

// mergedEvents interleaves every node's recorder — daemons (including
// crashed ones), clients (including departed ones), and the driver's own
// schedule-event ring — into one time-ordered causal trace.
func (d *driver) mergedEvents() []obs.Event {
	var traces [][]obs.Event
	for _, name := range d.aliveDaemons() {
		traces = append(traces, d.daemons[name].Obs().Rec.Events())
	}
	for _, sc := range d.dead {
		traces = append(traces, sc.Rec.Events())
	}
	for _, c := range d.allClients() {
		traces = append(traces, c.obs.Rec.Events())
	}
	traces = append(traces, d.obs.Rec.Events())
	return obs.Merge(traces...)
}

// causalTrace assembles the post-mortem dump: one summary line per node
// naming its last-known view id, KGA state, and last flush round, the
// trace analyzer's anomaly report (wedged flush rounds, stalled KGA
// machines, epoch-divergent nodes), then the merged time-ordered causal
// trace itself.
func (d *driver) causalTrace(merged []obs.Event) []string {
	var out []string
	for _, name := range d.aliveDaemons() {
		dm := d.daemons[name]
		v, ok := dm.CurrentView()
		if !ok {
			out = append(out, fmt.Sprintf("node %s: daemon stopped", name))
			continue
		}
		out = append(out, fmt.Sprintf("node %s: daemon view=%s members=%v", name, v.ID, v.Members))
	}
	for _, sc := range d.dead {
		out = append(out, fmt.Sprintf("node %s: daemon crashed", sc.Node))
	}
	for _, c := range d.allClients() {
		evs := c.obs.Rec.Events()
		view, kga, flush := "none", "idle", "none"
		for _, e := range evs {
			switch {
			case e.Comp == "flush" && e.Kind == "vs-view-install":
				view, flush = e.View, e.Detail
			case e.Kind == "kga-state":
				kga = e.Detail
			}
		}
		out = append(out, fmt.Sprintf("node %s: view=%s kga-state=%q last-flush=%q",
			c.member, view, kga, flush))
	}
	rep := analyze.Analyze(merged, analyze.Options{Group: d.cfg.Group})
	out = append(out, "-- anomaly report --")
	if lines := rep.AnomalyLines(); len(lines) > 0 {
		out = append(out, lines...)
	} else {
		out = append(out, "none")
	}
	out = append(out, "-- merged causal trace --")
	for _, e := range merged {
		out = append(out, e.String())
	}
	return out
}

func (d *driver) startDaemon(name string) error {
	dm, err := spread.NewDaemon(name, d.sched.Daemons, d.net, d.cfg.Daemon)
	if err != nil {
		return fmt.Errorf("chaos: start daemon %s: %w", name, err)
	}
	if d.cfg.clockSkew != nil {
		if sc := dm.Obs(); sc != nil && sc.Rec != nil {
			sc.Rec.Clock().SetOffset(d.cfg.clockSkew(name))
		}
	}
	d.daemons[name] = dm
	return nil
}

// waitDaemons blocks until the named daemons agree on a view of exactly
// themselves.
func (d *driver) waitDaemons(names []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if d.daemonsAgree(names) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: daemons %v did not stabilize within %v", names, timeout)
		}
		time.Sleep(d.cfg.Daemon.Heartbeat)
	}
}

func (d *driver) daemonsAgree(names []string) bool {
	if len(names) == 0 {
		return true
	}
	ref, ok := d.daemons[names[0]].CurrentView()
	if !ok || len(ref.Members) != len(names) {
		return false
	}
	for _, n := range names {
		v, ok := d.daemons[n].CurrentView()
		if !ok || v.ID != ref.ID {
			return false
		}
	}
	return true
}

// apply executes one schedule event against the live cluster. Errors from
// racing membership (a send hitting an unsecured group, a leave beaten by a
// crash) are part of the chaos and deliberately ignored; the invariants
// judge the outcome, not the path.
func (d *driver) apply(ev Event) {
	switch ev.Kind {
	case EvJoin:
		dm := d.daemons[ev.Daemon]
		if dm == nil {
			return
		}
		ep, err := dm.Connect(ev.Client)
		if err != nil {
			return
		}
		c := &client{
			name:    ev.Client,
			counter: dh.NewCounter(),
		}
		// Clients share the run-wide registry (histograms aggregate
		// cluster-wide) but keep private trace rings for the dump.
		member := ev.Client + "#" + ev.Daemon
		c.obs = &obs.Scope{Node: member, Rec: obs.NewRecorder(member, 0), Reg: d.reg, Log: obs.L("core")}
		if d.cfg.clockSkew != nil {
			c.obs.Rec.Clock().SetOffset(d.cfg.clockSkew(member))
		}
		c.conn = core.New(ep, core.WithCounter(c.counter), core.WithObs(c.obs))
		c.member = c.conn.Name()
		d.clients[ev.Client] = c
		go c.record()
		_ = c.conn.Join(d.cfg.Group, d.cfg.Proto, d.cfg.Suite)
	case EvLeave:
		if c := d.clients[ev.Client]; c != nil {
			_ = c.conn.Leave(d.cfg.Group)
			d.retire(ev.Client)
		}
	case EvClientGo:
		if c := d.clients[ev.Client]; c != nil {
			_ = c.conn.Disconnect()
			d.retire(ev.Client)
		}
	case EvCrash:
		// Fail-stop: detach from the network first (messages in flight
		// are lost), then reclaim the daemon and its clients.
		d.net.Crash(ev.Daemon)
		if dm := d.daemons[ev.Daemon]; dm != nil {
			d.dead = append(d.dead, dm.Obs())
			dm.Stop()
			delete(d.daemons, ev.Daemon)
		}
		for name, c := range d.clients {
			if strings.HasSuffix(c.member, "#"+ev.Daemon) {
				d.retire(name)
			}
		}
	case EvRecover:
		_ = d.startDaemon(ev.Daemon)
	case EvPartition:
		d.net.Partition(ev.Split...)
	case EvHeal:
		d.net.Heal()
	case EvDropOn:
		d.net.SetDropRate(ev.Rate)
	case EvDropOff:
		d.net.SetDropRate(0)
	case EvLatency:
		d.net.SetLatency(ev.Delay)
	case EvReset:
		// Kills the live sockets over TCP; over mem there are none, so
		// the reset is only traced.
		d.net.Reset(ev.Daemon, ev.Peer)
	case EvSend:
		if c := d.clients[ev.Client]; c != nil {
			d.sendProbe(c)
		}
	case EvRefresh:
		if c := d.clients[ev.Client]; c != nil {
			_ = c.conn.KeyRefresh(d.cfg.Group)
		}
	case EvSettle:
		// The settle sleep after the event is the whole point.
	}
}

// sendProbe multicasts an epoch-tagged probe from the client, if secured.
func (d *driver) sendProbe(c *client) {
	epoch, digest, ok := c.conn.KeyConfirmation(d.cfg.Group)
	if !ok {
		return
	}
	_ = c.conn.Multicast(d.cfg.Group, probePayload(c.member, epoch, digest))
}

// retire moves a client out of the alive roster, keeping its event log for
// the invariant checks.
func (d *driver) retire(name string) {
	if c := d.clients[name]; c != nil {
		d.departed = append(d.departed, c)
		delete(d.clients, name)
	}
}

func (d *driver) allClients() []*client {
	out := make([]*client, 0, len(d.clients)+len(d.departed))
	for _, c := range d.clients {
		out = append(out, c)
	}
	out = append(out, d.departed...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// aliveSorted returns the alive clients in schedule-name order. It must
// match Schedule.FinalClients when the replay tracked the model.
func (d *driver) aliveSorted() []*client {
	out := make([]*client, 0, len(d.clients))
	for _, c := range d.clients {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// converge waits until every alive client reports a secured group whose
// membership is exactly the alive member set, all at one epoch — and that
// state holds stable for a dwell period with every alive daemon agreed on
// one daemon-level view. The dwell matters: a trailing merge (an empty
// daemon rejoining after the heal) re-keys the group without changing its
// membership, so a single agreed sample can be a snapshot taken just
// before a re-key transiently unsecures the clients.
func (d *driver) converge(res *Result) bool {
	alive := d.aliveSorted()
	if len(alive) == 0 {
		return true
	}
	want := make(map[string]bool, len(alive))
	for _, c := range alive {
		want[c.member] = true
	}
	dwell := 1 * time.Second
	if raceEnabled {
		dwell = 3 * time.Second
	}
	deadline := time.Now().Add(d.cfg.ConvergeTimeout)
	var stableSince time.Time
	var stableEpoch uint64
	for time.Now().Before(deadline) {
		epoch, ok := d.agreed(alive, want)
		ok = ok && d.daemonsAgree(d.aliveDaemons())
		now := time.Now()
		if !ok || (!stableSince.IsZero() && epoch != stableEpoch) {
			stableSince = time.Time{}
		}
		if ok {
			if stableSince.IsZero() {
				stableSince, stableEpoch = now, epoch
			} else if now.Sub(stableSince) >= dwell {
				res.FinalEpoch = epoch
				return true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// aliveDaemons lists the currently-running daemons in name order.
func (d *driver) aliveDaemons() []string {
	out := make([]string, 0, len(d.daemons))
	for name := range d.daemons {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// agreed reports whether every alive client is secured on exactly the
// expected membership at one common epoch.
func (d *driver) agreed(alive []*client, want map[string]bool) (uint64, bool) {
	var epoch uint64
	for i, c := range alive {
		members, e, ok := c.conn.GroupState(d.cfg.Group)
		if !ok || len(members) != len(want) {
			return 0, false
		}
		for _, m := range members {
			if !want[m] {
				return 0, false
			}
		}
		if i == 0 {
			epoch = e
		} else if e != epoch {
			return 0, false
		}
	}
	return epoch, true
}

// finalProbes has every alive client multicast a probe and waits until
// every other client observed it — the operational proof that all members
// hold the same secret. Sends are retried: a trailing daemon-level view
// change (an empty daemon merging back after the heal) briefly blocks
// multicasts with ErrFlushing, which is VS working as specified, not a key
// disagreement. Receivers dedup by sender, so retries are harmless.
func (d *driver) finalProbes() {
	alive := d.aliveSorted()
	if len(alive) < 2 {
		return
	}
	wait := 10 * time.Second
	if raceEnabled {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		for _, c := range alive {
			d.sendProbe(c)
		}
		settled := time.Now().Add(300 * time.Millisecond)
		for time.Now().Before(settled) {
			if d.probesArrived(alive) {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// probesArrived reports whether every alive client has observed a probe
// from every other alive client at one common (epoch, digest).
func (d *driver) probesArrived(alive []*client) bool {
	epoch, digest, ok := alive[0].conn.KeyConfirmation(d.cfg.Group)
	if !ok {
		return false
	}
	hex := fmt.Sprintf("%x", digest)
	for _, c := range alive {
		got := make(map[string]bool)
		c.mu.Lock()
		for _, p := range c.probes {
			if p.epoch == epoch && p.digest == hex {
				got[p.sender] = true
			}
		}
		c.mu.Unlock()
		for _, peer := range alive {
			if peer != c && !got[peer.member] {
				return false
			}
		}
	}
	return true
}

// stopAll tears the whole cluster down.
func (d *driver) stopAll() {
	for _, c := range d.clients {
		_ = c.conn.Disconnect()
	}
	for _, dm := range d.daemons {
		dm.Stop()
	}
	d.net.Close()
}
