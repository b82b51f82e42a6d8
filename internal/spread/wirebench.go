package spread

import (
	"time"

	"repro/internal/wirecodec"
)

// WireCodecStat records one wire kind's frame size and encode/decode
// cost. Exported so the benchmark's wirecodec kernels can time the codec
// without reaching into unexported wire types.
type WireCodecStat struct {
	Kind       string
	CodecBytes int
	CodecEncNs float64
	CodecDecNs float64
}

// wireBenchMessages returns one representative message per steady-state
// wire kind (membership-protocol kinds included: they dominate view
// changes, the paper's expensive path). TestWireFrameSizes pins each
// one's encoded size.
func wireBenchMessages() []*wireMsg {
	v := ViewID{Epoch: 3, Coord: "daemon-00"}
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	dm := dataMsg{
		View: v, Sender: "daemon-01", Seq: 42, LTS: 1717,
		P: payload{Kind: payClientData, Group: "g", Member: "m#daemon-01", Service: Agreed, Data: data},
	}
	return []*wireMsg{
		{Kind: kindHeartbeat, HB: &hbMsg{View: v, LTS: 1717, Stable: 1700, Seq: 42}},
		{Kind: kindData, Data: &dm},
		{Kind: kindPropose, Prop: &proposeMsg{Round: 7}},
		{Kind: kindSync, Sync: &syncMsg{Round: 7, Members: []string{"daemon-00", "daemon-01", "daemon-02"}}},
		{Kind: kindSyncAck, SyncAck: &syncAckMsg{Round: 7, OldView: v, Msgs: []dataMsg{dm}}},
		{Kind: kindInstall, Install: &installMsg{
			Round:     8,
			View:      View{ID: ViewID{Epoch: 4, Coord: "daemon-00"}, Members: []string{"daemon-00", "daemon-01"}},
			Recovered: map[ViewID][]dataMsg{v: {dm}},
		}},
		{Kind: kindNack, Nack: &nackMsg{View: v, Sender: "daemon-01", From: 2, To: 5}},
	}
}

// MeasureWireCodec times encode and decode of each representative wire
// message, averaging iters runs.
func MeasureWireCodec(iters int) []WireCodecStat {
	if iters <= 0 {
		iters = 200
	}
	var out []WireCodecStat
	for _, m := range wireBenchMessages() {
		s := WireCodecStat{Kind: kindName(m.Kind)}

		enc, err := encodeWire(nil, m, nil)
		if err != nil {
			continue
		}
		s.CodecBytes = len(enc)

		start := time.Now()
		for i := 0; i < iters; i++ {
			buf, _ := encodeWire(wirecodec.GetBuf(), m, nil)
			wirecodec.PutBuf(buf)
		}
		s.CodecEncNs = float64(time.Since(start).Nanoseconds()) / float64(iters)

		start = time.Now()
		for i := 0; i < iters; i++ {
			_, _, _ = decodeWire(enc)
		}
		s.CodecDecNs = float64(time.Since(start).Nanoseconds()) / float64(iters)

		out = append(out, s)
	}
	return out
}
