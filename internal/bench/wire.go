package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/securespread"
)

// LatencyPoint is one Figure 5 data point: the end-to-end latency of
// messages of Size bytes through the full secure stack (multicast send at
// one member to delivery at a second).
type LatencyPoint struct {
	Size   int
	P50Ms  float64
	MeanMs float64
	MaxMs  float64
}

// waitSecured consumes a session's events until a secure view with n
// members arrives.
func waitSecured(s *securespread.Session, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ev, ok := s.Receive(time.Until(deadline))
		if !ok {
			break
		}
		if v, isView := ev.(securespread.SecureView); isView && len(v.Members) == n {
			return nil
		}
	}
	return fmt.Errorf("bench: %s: no %d-member secure view", s.Name(), n)
}

// MeasureWireLatencySweep boots one 2-member secure group and measures
// per-message delivery latency at each payload size (the paper's Figure 5
// shape): from send at one member to delivery at the other through the
// full stack — seal, wire encode, transport, decode, open, VS delivery.
// Messages go out one at a time: this is latency, not throughput.
func MeasureWireLatencySweep(suite string, sizes []int, count int) ([]LatencyPoint, error) {
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

	var out []LatencyPoint
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
		out = append(out, summarizeLatency(size, lat))
	}
	return out, nil
}

func summarizeLatency(size int, lat []float64) LatencyPoint {
	p := LatencyPoint{Size: size}
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
