package dh

import (
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
)

// ExpJobs fans the independent modular exponentiations of one protocol step
// across a worker pool. Each step of both key-agreement protocols — the
// Cliques controller refreshing n-2 partials, deriving the joiner's seed and
// keying the seed's MAC; the joiner folding its share into n-1 entries,
// deriving n-2 pairwise keys and its session key; the CKD controller
// blinding the session key under n-1 pairwise exponents — is a set of
// exponentiations with no data dependencies between them. Running the
// whole step as one batch turns the paper's O(n) serial exponentiation
// latency into O(n / cores) without touching the protocol: results are
// bit-identical to the serial loop and every exponentiation still records
// exactly one Counter.Inc under its own label, so the Table 2-4 accounting
// is preserved (Counter is goroutine-safe).

// batchWorkers overrides the pool width; 0 means runtime.GOMAXPROCS.
var batchWorkers atomic.Int64

// SetBatchWorkers sets the worker-pool width used by ExpJobs and returns
// the previous setting. n <= 1 forces the serial path (the parity tests
// run every scenario both ways); 0 restores the default of
// runtime.GOMAXPROCS workers.
func SetBatchWorkers(n int) int {
	return int(batchWorkers.Swap(int64(n)))
}

// BatchWorkers reports the effective pool width for a batch of n
// exponentiations.
func BatchWorkers(n int) int {
	w := int(batchWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Job is one counted exponentiation of a batch: Base^Exp mod p, recorded
// under Label.
type Job struct {
	Base, Exp *big.Int
	Label     string
}

// ExpJobs computes every job's Base^Exp mod p, fanning the jobs across the
// worker pool (serially when the pool width is 1), and returns the results
// in job order. Each job counts once under its own label, exactly as a
// serial loop of g.Exp calls would. Workers take jobs in index order, so
// the jobs a step needs soonest go first.
func (g *Group) ExpJobs(jobs []Job, c *Counter) []*big.Int {
	out := make([]*big.Int, len(jobs))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			j := jobs[i]
			out[i] = g.Exp(j.Base, j.Exp, c, j.Label)
		}
	}
	// The calling goroutine is one of the workers.
	w := BatchWorkers(len(jobs))
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
