package analyze

import (
	"fmt"
	"sort"
)

// RekeyBench is the BENCH_rekey.json schema written by `sgcbench -sizes`:
// for each key agreement protocol, the measured per-class/per-size rekey
// phase decomposition (from the live stack, via this package's analyzer)
// and the deterministic per-size exponentiation counts (from the pure
// protocol engines — no cluster, no timing). Together one file carries
// the paper's Table 2-4 accounting and the Figure 4-8 latency shape.
type RekeyBench struct {
	Sizes     []int                  `json:"sizes"`
	Batch     int                    `json:"batch"`
	Protocols map[string]*ProtoBench `json:"protocols"`
}

// ProtoBench is one protocol's sweep result.
type ProtoBench struct {
	// Phases are the analyzer's per-(class, size) summaries.
	Phases []ClassSummary `json:"phases"`
	// Exps are the deterministic serial exponentiation counts per size.
	Exps []ExpRow `json:"exps"`
}

// ExpRow mirrors the paper's Tables 2-4 for one group size.
type ExpRow struct {
	N               int `json:"n"`
	JoinController  int `json:"join_controller"`
	JoinNewMember   int `json:"join_new_member"`
	JoinSerial      int `json:"join_serial"`
	LeaveSerial     int `json:"leave_serial"`
	CtrlLeaveSerial int `json:"ctrl_leave_serial"`
}

// Rows flattens the sweep: phase timings gate as milliseconds, the
// deterministic exponentiation counts exactly.
func (b *RekeyBench) Rows() []Row {
	protos := make([]string, 0, len(b.Protocols))
	for p := range b.Protocols {
		protos = append(protos, p)
	}
	sort.Strings(protos)
	var out []Row
	for _, p := range protos {
		for _, s := range b.Protocols[p].Phases {
			pfx := fmt.Sprintf("rekey/%s/%s/n%d", p, s.Class, s.Size)
			out = append(out,
				Row{pfx + "/total_p50_ms", s.TotalP50Ms, GateMs},
				Row{pfx + "/mean_total_ms", s.Mean.TotalMs, GateMs},
				Row{pfx + "/mean_flush_ms", s.Mean.FlushMs, GateMs},
				Row{pfx + "/mean_kga_ms", s.Mean.KGAMs, GateMs})
		}
		for _, e := range b.Protocols[p].Exps {
			pfx := fmt.Sprintf("exp/%s/n%d", p, e.N)
			out = append(out,
				Row{pfx + "/join_controller", float64(e.JoinController), GateCount},
				Row{pfx + "/join_new_member", float64(e.JoinNewMember), GateCount},
				Row{pfx + "/join_serial", float64(e.JoinSerial), GateCount},
				Row{pfx + "/leave_serial", float64(e.LeaveSerial), GateCount},
				Row{pfx + "/ctrl_leave_serial", float64(e.CtrlLeaveSerial), GateCount})
		}
	}
	return out
}
