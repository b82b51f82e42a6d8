package bench

import (
	"fmt"
	"time"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
)

// CPUTiming is one Figure 4 data point: the computation time of one join
// or leave at group size n, measured by running the key agreement protocol
// over an in-memory bus (no network), plus the share of it attributable to
// modular exponentiation (the paper reports 88% for a 15-member Pentium
// join).
type CPUTiming struct {
	Protocol string
	N        int
	Batch    int
	// Join and Leave are the total protocol computation times for one
	// operation (all members' work; the in-memory bus executes it
	// serially and MeasureCPU pins the exponentiation batch pool to one
	// worker, so wall time equals CPU time).
	Join  time.Duration
	Leave time.Duration
	// JoinExps and LeaveExps are the total exponentiation counts across
	// all members for the operation.
	JoinExps  int
	LeaveExps int
	// ModExp is the measured cost of a single exponentiation.
	ModExp time.Duration
	// JoinExpShare estimates the fraction of the join computation spent
	// in modular exponentiation.
	JoinExpShare float64
}

// ModExpCost measures the unit cost of one modular exponentiation in the
// group (the paper reports 12 ms on the SPARC and 2.5 ms on the Pentium
// for a 512-bit modulus). The exponent is a share from NewShare, so it is
// 256 bits long, not the full-length exponent of the paper's Z_q shares:
// the unit is the cost of the short exponentiations, and JoinExpShare (and
// Figure 4's modexp-share column) built on it is a lower bound, because a
// controller's share·f mod q and CKD's reduced blinding exponents stay full
// length.
func ModExpCost(g *dh.Group, iters int) time.Duration {
	base := g.PowG(g.MustShare(), nil, "")
	exp := g.MustShare()
	start := time.Now()
	for i := 0; i < iters; i++ {
		g.Exp(base, exp, nil, "")
	}
	return time.Since(start) / time.Duration(iters)
}

// MeasureCPU measures Figure 4's join and leave computation times for the
// given protocol at group size n. It runs every protocol step's
// exponentiation batch on one worker and restores the prior pool width on
// return: a parallel batch would time wall time below CPU time.
func MeasureCPU(proto string, n, batch int, group *dh.Group) (CPUTiming, error) {
	if n < 2 {
		return CPUTiming{}, fmt.Errorf("bench: cpu timing needs n >= 2")
	}
	defer dh.SetBatchWorkers(dh.SetBatchWorkers(1))
	if group == nil {
		group = dh.Group512
	}
	out := CPUTiming{Protocol: proto, N: n, Batch: batch}
	out.ModExp = ModExpCost(group, 32)

	for b := 0; b < batch; b++ {
		var failErr error
		err := func() error {
			defer recoverAbort(&failErr)
			net := kgatest.NewNet(newRunTB(&failErr), proto, group)
			ms := names(n)
			net.Grow(ms[:n-1])
			net.Add(ms[n-1])
			net.ResetCounters()

			start := time.Now()
			net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[n-1:]}, ms)
			out.Join += time.Since(start)
			for _, c := range net.Counters {
				out.JoinExps += c.Total()
			}
			net.ResetCounters()

			start = time.Now()
			net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms[:n-1], Left: ms[n-1:]}, ms[:n-1])
			out.Leave += time.Since(start)
			for _, c := range net.Counters {
				out.LeaveExps += c.Total()
			}
			return failErr
		}()
		if err != nil {
			return CPUTiming{}, err
		}
	}
	out.Join /= time.Duration(batch)
	out.Leave /= time.Duration(batch)
	out.JoinExps /= batch
	out.LeaveExps /= batch
	if out.Join > 0 {
		out.JoinExpShare = float64(out.JoinExps) * float64(out.ModExp) / float64(out.Join)
		if out.JoinExpShare > 1 {
			out.JoinExpShare = 1
		}
	}
	return out, nil
}
