package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs/analyze"
	"repro/securespread"
)

// MeasureWireLatencySweep boots one 2-member secure group and measures
// per-message delivery latency at each payload size (the paper's Figure 5
// shape): from send at one member to delivery at the other through the
// full stack — seal, wire encode, transport, decode, open, VS delivery.
// Messages go out one at a time (latency, not throughput — MeasureBulk
// covers rates).
func MeasureWireLatencySweep(suite string, sizes []int, count int) ([]analyze.WireLatencyPoint, error) {
	cluster, err := securespread.NewLocalClusterConfig(2, benchConfig())
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	sender, err := securespread.Connect(cluster.Daemons[0], "tx")
	if err != nil {
		return nil, err
	}
	receiver, err := securespread.Connect(cluster.Daemons[1], "rx")
	if err != nil {
		return nil, err
	}
	group := "wire"
	for _, s := range []*securespread.Session{sender, receiver} {
		if err := s.JoinWith(group, securespread.ProtoCliques, suite); err != nil {
			return nil, err
		}
	}
	for _, s := range []*securespread.Session{sender, receiver} {
		if err := waitSecured(s, 2, 30*time.Second); err != nil {
			return nil, err
		}
	}

	var out []analyze.WireLatencyPoint
	for _, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i)
		}
		lat := make([]float64, 0, count)
		for i := 0; i < count; i++ {
			start := time.Now()
			if err := sender.Multicast(group, payload); err != nil {
				return nil, err
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				ev, ok := receiver.Receive(time.Until(deadline))
				if !ok {
					return nil, fmt.Errorf("bench: size %d msg %d never delivered", size, i)
				}
				if m, isMsg := ev.(securespread.Message); isMsg && len(m.Data) == size {
					lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
					break
				}
			}
		}
		out = append(out, summarizeLatency(suite, size, lat))
	}
	return out, nil
}

func summarizeLatency(suite string, size int, lat []float64) analyze.WireLatencyPoint {
	p := analyze.WireLatencyPoint{Suite: suite, Size: size, Count: len(lat)}
	if len(lat) == 0 {
		return p
	}
	sort.Float64s(lat)
	p.P50Ms = lat[len(lat)/2]
	p.MaxMs = lat[len(lat)-1]
	var sum float64
	for _, v := range lat {
		sum += v
	}
	p.MeanMs = sum / float64(len(lat))
	return p
}
