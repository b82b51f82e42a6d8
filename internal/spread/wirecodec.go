package spread

import (
	"fmt"
	"sort"

	"repro/internal/wirecodec"
)

// Hand-rolled binary encoding of the daemon wire vocabulary (see
// internal/wirecodec for the format rules). Layout after the preamble:
//
//	[kind zigzag-varint] [body present? 1 byte] [kind-specific fields]
//
// Only the body matching the kind travels.

// encodeWire appends m's encoding to buf (often a pooled buffer from
// wirecodec.GetBuf) and returns the extended slice. ext is the sender's
// causal-tracing stamp, nil when it has none.
func encodeWire(buf []byte, m *wireMsg, ext *wirecodec.Ext) ([]byte, error) {
	if m.Kind <= 0 || m.Kind >= kindMax {
		return nil, fmt.Errorf("encode wire message: unknown kind %d", int(m.Kind))
	}
	b := wirecodec.AppendPreambleExt(buf, ext)
	b = wirecodec.AppendInt(b, int64(m.Kind))
	switch m.Kind {
	case kindHeartbeat:
		if b = appendPresent(b, m.HB == nil); m.HB == nil {
			return b, nil
		}
		b = appendViewID(b, m.HB.View)
		b = wirecodec.AppendUvarint(b, m.HB.LTS)
		b = wirecodec.AppendUvarint(b, m.HB.Stable)
		b = wirecodec.AppendUvarint(b, m.HB.Seq)
	case kindData:
		if b = appendPresent(b, m.Data == nil); m.Data == nil {
			return b, nil
		}
		b = appendDataMsg(b, m.Data)
	case kindPropose:
		if b = appendPresent(b, m.Prop == nil); m.Prop == nil {
			return b, nil
		}
		b = wirecodec.AppendUvarint(b, m.Prop.Round)
	case kindSync:
		if b = appendPresent(b, m.Sync == nil); m.Sync == nil {
			return b, nil
		}
		b = wirecodec.AppendUvarint(b, m.Sync.Round)
		b = wirecodec.AppendStrings(b, m.Sync.Members)
	case kindSyncAck:
		if b = appendPresent(b, m.SyncAck == nil); m.SyncAck == nil {
			return b, nil
		}
		b = appendSyncAck(b, m.SyncAck)
	case kindInstall:
		if b = appendPresent(b, m.Install == nil); m.Install == nil {
			return b, nil
		}
		b = appendInstall(b, m.Install)
	case kindNack:
		if b = appendPresent(b, m.Nack == nil); m.Nack == nil {
			return b, nil
		}
		b = appendViewID(b, m.Nack.View)
		b = wirecodec.AppendString(b, m.Nack.Sender)
		b = wirecodec.AppendUvarint(b, m.Nack.From)
		b = wirecodec.AppendUvarint(b, m.Nack.To)
	}
	return b, nil
}

// appendPresent writes the body presence byte (1 = present).
func appendPresent(b []byte, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return append(b, 1)
}

// decodeWire decodes a daemon wire frame and its causal-tracing extension
// (nil when the sender had no stamp).
func decodeWire(data []byte) (*wireMsg, *wirecodec.Ext, error) {
	d := wirecodec.NewDec(data)
	m := &wireMsg{Kind: msgKind(d.Int())}
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("decode wire message: %w", err)
	}
	if m.Kind <= 0 || m.Kind >= kindMax {
		return nil, nil, fmt.Errorf("decode wire message: unknown kind %d", int(m.Kind))
	}
	if !d.Bool() {
		if err := d.Close(); err != nil {
			return nil, nil, fmt.Errorf("decode wire message: %w", err)
		}
		return m, d.Ext(), nil
	}
	switch m.Kind {
	case kindHeartbeat:
		hb := &hbMsg{}
		hb.View = readViewID(d)
		hb.LTS = d.Uvarint()
		hb.Stable = d.Uvarint()
		hb.Seq = d.Uvarint()
		m.HB = hb
	case kindData:
		m.Data = readDataMsg(d)
	case kindPropose:
		m.Prop = &proposeMsg{Round: d.Uvarint()}
	case kindSync:
		m.Sync = &syncMsg{Round: d.Uvarint(), Members: d.Strings()}
	case kindSyncAck:
		m.SyncAck = readSyncAck(d)
	case kindInstall:
		m.Install = readInstall(d)
	case kindNack:
		n := &nackMsg{}
		n.View = readViewID(d)
		n.Sender = d.String()
		n.From = d.Uvarint()
		n.To = d.Uvarint()
		m.Nack = n
	}
	if err := d.Close(); err != nil {
		return nil, nil, fmt.Errorf("decode wire message: %w", err)
	}
	return m, d.Ext(), nil
}

// ---- field group encoders ----

func appendViewID(b []byte, v ViewID) []byte {
	b = wirecodec.AppendUvarint(b, v.Epoch)
	return wirecodec.AppendString(b, v.Coord)
}

func readViewID(d *wirecodec.Dec) ViewID {
	return ViewID{Epoch: d.Uvarint(), Coord: d.String()}
}

func appendStamp(b []byte, s Stamp) []byte {
	b = wirecodec.AppendUvarint(b, s.Epoch)
	b = wirecodec.AppendUvarint(b, s.LTS)
	b = wirecodec.AppendUvarint(b, s.Sub)
	return wirecodec.AppendString(b, s.Name)
}

func readStamp(d *wirecodec.Dec) Stamp {
	return Stamp{Epoch: d.Uvarint(), LTS: d.Uvarint(), Sub: d.Uvarint(), Name: d.String()}
}

func appendDataMsg(b []byte, m *dataMsg) []byte {
	b = appendViewID(b, m.View)
	b = wirecodec.AppendString(b, m.Sender)
	b = wirecodec.AppendUvarint(b, m.Seq)
	b = wirecodec.AppendUvarint(b, m.LTS)
	return appendPayload(b, &m.P)
}

func readDataMsg(d *wirecodec.Dec) *dataMsg {
	m := &dataMsg{}
	m.View = readViewID(d)
	m.Sender = d.String()
	m.Seq = d.Uvarint()
	m.LTS = d.Uvarint()
	readPayload(d, &m.P)
	return m
}

func appendPayload(b []byte, p *payload) []byte {
	b = wirecodec.AppendInt(b, int64(p.Kind))
	b = wirecodec.AppendString(b, p.Group)
	b = wirecodec.AppendString(b, p.Member)
	b = wirecodec.AppendString(b, p.DstMember)
	b = wirecodec.AppendInt(b, int64(p.Service))
	b = wirecodec.AppendBytes(b, p.Data)
	b = wirecodec.AppendBool(b, p.Disconnect)
	if p.State == nil {
		return append(b, 0)
	}
	b = wirecodec.AppendUvarint(b, uint64(len(p.State))+1)
	for i := range p.State {
		e := &p.State[i]
		b = wirecodec.AppendString(b, e.Group)
		b = wirecodec.AppendString(b, e.Member)
		b = wirecodec.AppendString(b, e.Daemon)
		b = appendStamp(b, e.Stamp)
		b = appendViewID(b, e.PrevView)
		b = wirecodec.AppendUvarint(b, e.ViewSeq)
	}
	return b
}

func readPayload(d *wirecodec.Dec, p *payload) {
	p.Kind = payloadKind(d.Int())
	p.Group = d.String()
	p.Member = d.String()
	p.DstMember = d.String()
	p.Service = Service(d.Int())
	p.Data = d.Bytes()
	p.Disconnect = d.Bool()
	n, present := d.Count()
	if !present {
		return
	}
	p.State = make([]stateEntry, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var e stateEntry
		e.Group = d.String()
		e.Member = d.String()
		e.Daemon = d.String()
		e.Stamp = readStamp(d)
		e.PrevView = readViewID(d)
		e.ViewSeq = d.Uvarint()
		p.State = append(p.State, e)
	}
}

func appendDataMsgs(b []byte, msgs []dataMsg) []byte {
	if msgs == nil {
		return append(b, 0)
	}
	b = wirecodec.AppendUvarint(b, uint64(len(msgs))+1)
	for i := range msgs {
		b = appendDataMsg(b, &msgs[i])
	}
	return b
}

func readDataMsgs(d *wirecodec.Dec) []dataMsg {
	n, present := d.Count()
	if !present {
		return nil
	}
	out := make([]dataMsg, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m := readDataMsg(d)
		out = append(out, *m)
	}
	return out
}

func appendSyncAck(b []byte, a *syncAckMsg) []byte {
	b = wirecodec.AppendUvarint(b, a.Round)
	b = appendViewID(b, a.OldView)
	return appendDataMsgs(b, a.Msgs)
}

func readSyncAck(d *wirecodec.Dec) *syncAckMsg {
	a := &syncAckMsg{}
	a.Round = d.Uvarint()
	a.OldView = readViewID(d)
	a.Msgs = readDataMsgs(d)
	return a
}

// sortedViews returns map keys in (epoch, coord) order so the encoding is
// deterministic regardless of map iteration order.
func sortedViews(m map[ViewID][]dataMsg) []ViewID {
	keys := make([]ViewID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

func appendInstall(b []byte, inst *installMsg) []byte {
	b = wirecodec.AppendUvarint(b, inst.Round)
	b = appendViewID(b, inst.View.ID)
	b = wirecodec.AppendStrings(b, inst.View.Members)
	if inst.Recovered == nil {
		return append(b, 0)
	}
	b = wirecodec.AppendUvarint(b, uint64(len(inst.Recovered))+1)
	for _, v := range sortedViews(inst.Recovered) {
		b = appendViewID(b, v)
		b = appendDataMsgs(b, inst.Recovered[v])
	}
	return b
}

func readInstall(d *wirecodec.Dec) *installMsg {
	inst := &installMsg{}
	inst.Round = d.Uvarint()
	inst.View.ID = readViewID(d)
	inst.View.Members = d.Strings()
	if n, present := d.Count(); present {
		inst.Recovered = make(map[ViewID][]dataMsg, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			v := readViewID(d)
			inst.Recovered[v] = readDataMsgs(d)
		}
	}
	return inst
}
