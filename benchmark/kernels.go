package main

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand/v2"
	"time"

	"repro/internal/blowfish"
	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
	"repro/internal/obs"
	"repro/internal/spread"
	"repro/internal/transport"
)

// transportMember is the bottom rung of the ladder: node 0 of three
// attached to a bare transport sends every message to the two others. There
// are no groups and no loopback; the receivers run on the transport's own
// delivery goroutines.
type transportMember struct {
	nodes []transport.Node
	regs  []*obs.Registry
}

func (m *transportMember) Name() string       { return m.nodes[0].Name() }
func (m *transportMember) Join(string) error  { return nil }
func (m *transportMember) Leave(string) error { return nil }
func (m *transportMember) Drain(func(event))  {}
func (m *transportMember) Send(_ string, p []byte) error {
	for _, peer := range m.nodes[1:] {
		if err := m.nodes[0].Send(peer.Name(), p); err != nil {
			return err
		}
	}
	return nil
}

func (m *transportMember) Disconnect() error {
	for _, n := range m.nodes {
		_ = n.Close() // detaching twice is harmless
	}
	return nil
}

// dropped reads the TCP transport's send-queue drop counters.
func (m *transportMember) dropped() int64 {
	var sum int64
	for _, reg := range m.regs {
		sum += reg.Counter("transport_sendq_dropped").Value()
	}
	return sum
}

// rawHandler hands a node's inbound frames to a receiver and gives the TCP
// transport a registry of its own for its counters.
type rawHandler struct {
	reg  *obs.Registry
	recv func(event)
}

func (h rawHandler) HandleMessage(_ string, data []byte) { h.recv(event{kind: evData, data: data}) }
func (h rawHandler) ObsRegistry() *obs.Registry          { return h.reg }

// transportGroup builds the bottom rung as a group of one sending member
// and two receivers, so the ladder's loops drive it like any other rung.
func transportGroup(tcp bool, gen *generator) (*group, error) {
	names := []string{"n0", "n1", "n2"}
	name := "transport/mem"
	var network transport.Network = transport.NewMemNetwork()
	if tcp {
		name = "transport/tcp"
		addrs := map[string]string{}
		for _, n := range names {
			addrs[n] = "127.0.0.1:0"
		}
		network = transport.NewTCPNetwork(addrs)
	}
	g := newGroup(nil, stack{name: name}, gen, 1, nil)
	// Nothing retransmits below spread: stay well inside the TCP
	// transport's 1024-frame drop-oldest send queue.
	g.credit = creditMessages / 2
	tm := &transportMember{}
	g.members = []member{tm}
	for i, n := range names {
		h := rawHandler{reg: obs.NewRegistry(), recv: func(event) {}}
		if i > 0 {
			r := newReceiver(g, i)
			g.recv = append(g.recv, r)
			h.recv = r.handle
		}
		node, err := network.Attach(n, h)
		if err != nil {
			_ = tm.Disconnect()
			return nil, err
		}
		tm.nodes = append(tm.nodes, node)
		tm.regs = append(tm.regs, h.reg)
	}
	return g, nil
}

// calibExps is the size of the machine-speed reference kernel.
const calibExps = 48

// calibrate runs a fixed single-thread kernel (512-bit exponentiations of
// fixed operands) and keeps its time: when it moves, the machine moved.
func (lr *layerRun) calibrate() {
	g := dh.Group512
	base, exp := big.NewInt(0x5eed), new(big.Int).Rsh(g.Q, 1)
	t0 := time.Now()
	for i := 0; i < calibExps; i++ {
		base = g.Exp(base, exp, nil, "")
	}
	lr.calib = append(lr.calib, float64(time.Since(t0).Microseconds())/calibExps)
}

// perOp times n calls of f and returns nanoseconds per call.
func perOp(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// abortTB lets the key-agreement test harness run outside a test: a fatal
// check panics with the message, and engines recovers it into an error.
type abortTB struct{}

type abort string

func (abortTB) Helper()                           {}
func (abortTB) Fatalf(format string, args ...any) { panic(abort(fmt.Sprintf(format, args...))) }

// engines drives the pure key-agreement engines (no network, no flush)
// through one join and one leave at the size and modulus of rekey_churn:
// the computation a rekey cannot do without, and its exact counts.
func (lr *layerRun) engines() (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("key agreement engine: %s", string(a))
		}
	}()
	churnDef, _ := findWorkload("rekey_churn")
	group, err := dh.GroupForBits(churnDef.bits)
	if err != nil {
		return err
	}
	n := churnDef.members + 1
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	const reps = 3
	for _, proto := range []string{"cliques", "ckd"} {
		var joinMs, leaveMs []float64
		var joinExps, leaveExps, msgs, msgBytes int
		for r := 0; r < reps; r++ {
			net := kgatest.NewNet(abortTB{}, proto, group)
			net.Grow(names[:n-1])
			net.Add(names[n-1])
			net.ResetCounters()
			msgs, msgBytes = 0, 0
			net.Drop = func(m kga.Message) bool {
				msgs++
				msgBytes += len(m.Body)
				return false
			}
			total := func() (sum int) {
				for _, c := range net.Counters {
					sum += c.Total()
				}
				return sum
			}
			t0 := time.Now()
			net.MustRun(kga.Event{Type: kga.EvJoin, Members: names, Joined: names[n-1:]}, names)
			joinMs = append(joinMs, float64(time.Since(t0).Microseconds())/1000)
			joinExps = total()
			net.ResetCounters()
			net.Drop = nil
			t0 = time.Now()
			net.MustRun(kga.Event{Type: kga.EvLeave, Members: names[:n-1], Left: names[n-1:]}, names[:n-1])
			leaveMs = append(leaveMs, float64(time.Since(t0).Microseconds())/1000)
			leaveExps = total()
		}
		lr.set(proto+".join_cpu_ms", median(joinMs), reps)
		lr.set(proto+".leave_cpu_ms", median(leaveMs), reps)
		lr.set(proto+".join_exps", float64(joinExps), 1)
		lr.set(proto+".leave_exps", float64(leaveExps), 1)
		if proto == "cliques" {
			lr.set("cliques.join_msgs", float64(msgs), 1)
			lr.set("cliques.join_bytes", float64(msgBytes), 1)
		}
	}
	return nil
}

// kernels times single public calls of the leaf layers in isolation, with
// fixed iteration counts and seeded operands.
func (lr *layerRun) kernels() error {
	var seed [32]byte
	copy(seed[:], "benchmark kernel operands")
	rnd := rand.NewChaCha8(seed)

	for _, k := range []struct {
		bits  int
		iters int
		exp   string
	}{{1024, 60, "dh.exp_us"}, {512, 200, "dh.exp512_us"}} {
		g, err := dh.GroupForBits(k.bits)
		if err != nil {
			return err
		}
		share, err := g.NewShare(rnd)
		if err != nil {
			return err
		}
		base := g.PowG(share, nil, "")
		lr.set(k.exp, perOp(k.iters, func() { g.Exp(base, share, nil, "") })/1000, k.iters)
		if k.bits == 1024 {
			lr.set("dh.powg_us", perOp(k.iters, func() { g.PowG(share, nil, "") })/1000, k.iters)
			var ierr error
			lr.set("dh.inverse_us", perOp(k.iters, func() { _, ierr = g.InverseQ(share) })/1000, k.iters)
			if ierr != nil {
				return ierr
			}
		}
	}

	suite, err := crypt.NewSuite(crypt.SuiteBlowfish, []byte("benchmark group secret"), []byte("bench/1"))
	if err != nil {
		return err
	}
	plain := lr.gen.next(0, 0, 0)
	buf := make([]byte, 0, len(plain)+suite.Overhead())
	var frame []byte
	iters := max(200, 4_000_000/len(plain))
	sealNs := perOp(iters, func() { frame, err = crypt.SealAppend(suite, buf[:0], plain) })
	if err != nil {
		return err
	}
	var opened []byte
	openNs := perOp(iters, func() { opened, err = suite.Open(frame) })
	if err != nil || !bytes.Equal(opened, plain) {
		return fmt.Errorf("crypt kernel: open returned a different payload (%v)", err)
	}
	lr.set("crypt.seal_us", sealNs/1000, iters)
	lr.set("crypt.open_us", openNs/1000, iters)
	lr.set("crypt.seal_mb_per_s", float64(len(plain))/sealNs*1e9/(1<<20), iters)

	key := []byte("0123456789abcdef")
	cipher, err := blowfish.NewCipher(key)
	if err != nil {
		return err
	}
	var block [blowfish.BlockSize]byte
	lr.set("blowfish.encrypt_block_ns", perOp(200_000, func() { cipher.Encrypt(block[:], block[:]) }), 200_000)
	lr.set("blowfish.key_schedule_us", perOp(200, func() { cipher, err = blowfish.NewCipher(key) })/1000, 200)
	if err != nil {
		return err
	}

	const codecIters = 300
	for _, s := range spread.MeasureWireCodec(codecIters) {
		if s.Kind == "data" {
			lr.set("wirecodec.encode_data_ns", s.CodecEncNs, codecIters)
			lr.set("wirecodec.decode_data_ns", s.CodecDecNs, codecIters)
			lr.set("wirecodec.data_frame_bytes", float64(s.CodecBytes), 1)
		}
	}

	scratch := make([]byte, 0, len(plain)+64)
	var encoded []byte
	lr.set("transport.frame_append_ns", perOp(100_000, func() {
		encoded, err = transport.AppendFrame(scratch[:0], "d00", plain)
	}), 100_000)
	if err != nil {
		return err
	}
	reader := bytes.NewReader(encoded)
	lr.set("transport.frame_read_ns", perOp(100_000, func() {
		reader.Reset(encoded)
		_, _, err = transport.ReadFrame(reader)
	}), 100_000)
	if err != nil {
		return err
	}

	sc := obs.NewScope("benchmark", "bench")
	ev := obs.Event{Comp: "bench", Kind: "kernel", Group: "g", Detail: "x"}
	lr.set("obs.record_ns", perOp(200_000, func() { sc.Record(ev) }), 200_000)
	counter := sc.Reg.Counter("bench_kernel")
	lr.set("obs.counter_inc_ns", perOp(1_000_000, counter.Inc), 1_000_000)
	hist := sc.Reg.Histogram("bench_kernel", nil)
	lr.set("obs.hist_observe_ns", perOp(1_000_000, func() { hist.Observe(3 * time.Millisecond) }), 1_000_000)
	return nil
}
