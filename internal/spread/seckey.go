package spread

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

	_ "repro/internal/ckd" // default daemon keying module
	"repro/internal/crypt"
	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// errorsIsRetry reports a "not ready yet" key agreement error.
func errorsIsRetry(err error) bool { return errors.Is(err, kga.ErrRetry) }

// Daemon-model security (the paper's Section 5 alternative and stated
// future work: "integrate Cliques security mechanisms into the Spread
// daemons"). When Config.DaemonKeying is set, the daemons of a view run
// their own key agreement — once per DAEMON membership change, which the
// paper notes is far rarer than process-group changes — and every
// daemon-to-daemon data message is encrypted and authenticated under the
// daemon-group key. Client traffic then needs no per-group key agreement
// at all (though the client model can still be layered on top for
// end-to-end confidentiality, as the paper recommends: the two models
// protect against different adversaries).
//
// Membership protocol messages (heartbeats, view agreement) stay in the
// clear: a merging daemon could not decrypt them before keying with its
// new peers. This matches the paper's observation that the daemons must
// anyway defend the ordering protocol by other means; what the daemon key
// protects is the content of client data crossing the wire.

// daemonSec is the per-daemon security context, owned by the event loop.
type daemonSec struct {
	protoName string
	suiteName string

	proto kga.Protocol
	// anns collects the view members' long-term public keys.
	anns map[string]*big.Int
	// ops is the pending key agreement operation queue for this view.
	ops []kga.Event
	// deferred holds agreement messages that arrived early.
	deferred []kga.Message

	key   *kga.GroupKey
	suite crypt.Suite
	ready bool

	// held buffers outbound data payloads until the view is keyed.
	held []payload
	// future buffers inbound encrypted frames for epochs we have not
	// reached.
	future []secFrame
}

type secFrame struct {
	from  string
	view  ViewID
	epoch uint64
	frame []byte
}

// secMsg is the wire body for daemon keying traffic.
type secMsg struct {
	// Announce: the sender's long-term public key for this view.
	View ViewID
	Pub  *big.Int

	// Key agreement message.
	KGA *kga.Message

	// Encrypted data frame.
	Epoch uint64
	Frame []byte
}

// newDaemonSec builds the security context; the kga engine is created per
// view (full re-key per daemon membership change).
func newDaemonSec(protoName, suiteName string) *daemonSec {
	if protoName == "" {
		protoName = "ckd"
	}
	if suiteName == "" {
		suiteName = crypt.SuiteAESCTR
	}
	return &daemonSec{protoName: protoName, suiteName: suiteName}
}

// secReset starts the keying round for a freshly installed view.
func (d *Daemon) secReset() {
	s := d.sec
	s.anns = make(map[string]*big.Int, len(d.view.Members))
	s.ops = nil
	s.deferred = nil
	s.ready = false
	// Frames for superseded views are dropped; frames that raced ahead
	// of our install of the current (or a future) view are kept.
	var keep []secFrame
	for _, f := range s.future {
		if !f.view.Less(d.view.ID) {
			keep = append(keep, f)
		}
	}
	s.future = keep
	// held survives the reset: queued traffic goes out under the new key.

	dir := kga.DirectoryFunc(func(name string) (*big.Int, error) {
		pub, ok := s.anns[name]
		if !ok {
			return nil, fmt.Errorf("spread: no daemon key announced by %s", name)
		}
		return pub, nil
	})
	proto, err := kga.New(s.protoName, d.name, d.secGroup(), dir, nil)
	if err != nil {
		// Registration error: fall back to plaintext operation rather
		// than wedging the daemon.
		s.ready = true
		s.suite = nil
		d.drainHeld()
		return
	}
	s.proto = proto
	// Daemon-layer KGA bodies carry HLC stamps too, so the inter-daemon
	// rekey shows up in the same happens-before graph as group rekeys
	// (this engine lives for one view, so its events' View is fixed).
	if cs, ok := proto.(kga.CausalSetter); ok {
		cs.SetCausal(&kga.Causal{Scope: d.obs, Event: obs.Event{Comp: "spread-sec", View: d.viewStr}})
	}

	body := &secMsg{View: d.view.ID, Pub: proto.PubKey()}
	d.secSendAll(kindSecAnnounce, body)
	// Our own announcement.
	d.onSecAnnounce(d.name, body)
}

func (d *Daemon) secSendAll(kind msgKind, body *secMsg) {
	data, err := encodeWire(wirecodec.GetBuf(), &wireMsg{Kind: kind, Sec: body}, d.wireSendExt(kind))
	if err != nil {
		wirecodec.PutBuf(data)
		return
	}
	for _, m := range d.view.Members {
		if m != d.name {
			d.counters.countSent(kind, len(data))
			_ = d.node.Send(m, data)
		}
	}
	wirecodec.PutBuf(data)
}

// onSecAnnounce collects a member's long-term key; when all view members
// announced, the agreement starts: the first member re-founds the daemon
// group and everyone else merges in (full re-key per view, like the secure
// layer's cascade fallback — simple and always correct, affordable because
// daemon views change rarely).
func (d *Daemon) onSecAnnounce(from string, m *secMsg) {
	s := d.sec
	if s == nil || m == nil || m.Pub == nil || m.View != d.view.ID || s.ready {
		return
	}
	if !slices.Contains(d.view.Members, from) {
		return
	}
	s.anns[from] = m.Pub
	if len(s.anns) < len(d.view.Members) {
		return
	}

	members := slices.Clone(d.view.Members)
	me := d.name
	var ops []kga.Event
	if members[0] == me {
		ops = append(ops, kga.Event{Type: kga.EvFound, Members: members[:1]})
	}
	if len(members) > 1 {
		ops = append(ops, kga.Event{Type: kga.EvMerge, Members: members, Joined: members[1:]})
	}
	if len(ops) == 0 {
		return
	}
	s.ops = ops
	d.secDrive()
}

// secDrive starts the next queued agreement operation.
func (d *Daemon) secDrive() {
	s := d.sec
	if len(s.ops) == 0 {
		return
	}
	op := s.ops[0]
	s.ops = s.ops[1:]
	res, err := s.proto.HandleEvent(op)
	if err != nil {
		return // next view retries; data stays queued
	}
	d.secTransmit(res.Msgs)
	if res.Key != nil {
		d.secKeyed(res.Key)
	}
	d.secRetryDeferred()
}

func (d *Daemon) secTransmit(msgs []kga.Message) {
	for _, m := range msgs {
		body := &secMsg{View: d.view.ID, KGA: &m}
		data, err := encodeWire(wirecodec.GetBuf(), &wireMsg{Kind: kindSecKGA, Sec: body}, d.wireSendExt(kindSecKGA))
		if err != nil {
			wirecodec.PutBuf(data)
			continue
		}
		if m.To != "" {
			d.counters.countSent(kindSecKGA, len(data))
			_ = d.node.Send(m.To, data)
			wirecodec.PutBuf(data)
			continue
		}
		for _, member := range d.view.Members {
			if member != d.name {
				d.counters.countSent(kindSecKGA, len(data))
				_ = d.node.Send(member, data)
			}
		}
		wirecodec.PutBuf(data)
	}
}

// onSecKGA advances the daemon key agreement.
func (d *Daemon) onSecKGA(from string, m *secMsg) {
	s := d.sec
	if s == nil || m == nil || m.KGA == nil || m.View != d.view.ID || s.proto == nil {
		return
	}
	if from == d.name || !slices.Contains(d.view.Members, from) {
		return
	}
	res, err := s.proto.HandleMessage(*m.KGA)
	if err != nil {
		if errorsIsRetry(err) && len(s.deferred) < 1024 {
			s.deferred = append(s.deferred, *m.KGA)
		}
		return
	}
	d.secTransmit(res.Msgs)
	if res.Key != nil {
		d.secKeyed(res.Key)
	}
	d.secRetryDeferred()
}

func (d *Daemon) secRetryDeferred() {
	s := d.sec
	for {
		if len(s.deferred) == 0 || s.proto == nil {
			return
		}
		queue := s.deferred
		s.deferred = nil
		progressed := false
		for i, m := range queue {
			res, err := s.proto.HandleMessage(m)
			if err != nil {
				if errorsIsRetry(err) {
					s.deferred = append(s.deferred, m)
				}
				continue
			}
			progressed = true
			d.secTransmit(res.Msgs)
			if res.Key != nil {
				d.secKeyed(res.Key)
			}
			s.deferred = append(s.deferred, queue[i+1:]...)
			break
		}
		if !progressed {
			return
		}
	}
}

// secKeyed installs the daemon-group key and releases held traffic.
func (d *Daemon) secKeyed(k *kga.GroupKey) {
	s := d.sec
	if len(s.ops) > 0 {
		s.key = k
		d.secDrive()
		return
	}
	suite, err := crypt.NewSuite(s.suiteName, k.Bytes(), []byte(fmt.Sprintf("spread-daemon/%s/%d", d.view.ID, k.Epoch)))
	if err != nil {
		return
	}
	s.key = k
	s.suite = suite
	s.ready = true

	d.drainHeld()
	// Decrypt frames that arrived while we were still keying.
	future := s.future
	s.future = nil
	for _, f := range future {
		d.onSecData(f.from, &secMsg{View: f.view, Epoch: f.epoch, Frame: f.frame})
	}
}

// drainHeld broadcasts the data payloads queued during keying.
func (d *Daemon) drainHeld() {
	s := d.sec
	held := s.held
	s.held = nil
	for _, p := range held {
		d.broadcastData(p)
	}
}

// secSealEncode encrypts an encoded data message under the daemon-group
// key and encodes the resulting kindSecData envelope. Both the sealed
// frame and the returned encoding live in pooled buffers: the frame is
// recycled here, the returned slice by the caller once the transport has
// copied it (Send copies synchronously on every transport).
func (d *Daemon) secSealEncode(encoded []byte) ([]byte, error) {
	s := d.sec
	frameBuf := wirecodec.GetBuf()
	frame, err := crypt.SealAppend(s.suite, frameBuf, encoded)
	if err != nil {
		wirecodec.PutBuf(frameBuf)
		return nil, err
	}
	enc, err := encodeWire(wirecodec.GetBuf(), &wireMsg{Kind: kindSecData, Sec: &secMsg{
		View:  d.view.ID,
		Epoch: s.key.Epoch,
		Frame: frame,
	}}, d.clockExt())
	wirecodec.PutBuf(frame)
	if err != nil {
		wirecodec.PutBuf(enc)
		return nil, err
	}
	return enc, nil
}

// onSecData decrypts an encrypted data frame and feeds the inner message
// through the normal delivery path.
func (d *Daemon) onSecData(from string, m *secMsg) {
	s := d.sec
	if s == nil || m == nil {
		return
	}
	if m.View != d.view.ID {
		if d.view.ID.Less(m.View) && len(s.future) < 65536 {
			s.future = append(s.future, secFrame{from: from, view: m.View, epoch: m.Epoch, frame: m.Frame})
		}
		return
	}
	if !s.ready || s.suite == nil || m.Epoch != s.key.Epoch {
		if len(s.future) < 65536 {
			s.future = append(s.future, secFrame{from: from, view: m.View, epoch: m.Epoch, frame: m.Frame})
		}
		return
	}
	plain, err := s.suite.Open(m.Frame)
	if err != nil {
		return // forged or corrupted: drop
	}
	inner, ext, err := decodeWire(plain)
	if err != nil || inner.Kind != kindData {
		return
	}
	// The unsealed frame carries the original broadcast's causal stamp.
	d.observeWireExt(from, kindData, ext)
	d.onData(inner.Data)
}

// secGroup returns the DH group for daemon keying.
func (d *Daemon) secGroup() *dh.Group { return dh.Group512 }
