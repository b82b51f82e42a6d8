package dh

import (
	"fmt"
	"maps"
	"math/big"
	"testing"
)

// withWorkers runs f under a fixed batch pool width, restoring the
// previous setting afterwards.
func withWorkers(n int, f func()) {
	prev := SetBatchWorkers(n)
	defer SetBatchWorkers(prev)
	f()
}

// checkJobs runs jobs through ExpJobs and requires every result to equal
// big.Int.Exp and the counter to hold exactly one Inc per job under the
// job's label; it returns the per-label tally.
func checkJobs(t *testing.T, g *Group, jobs []Job) map[string]int {
	t.Helper()
	c := NewCounter()
	got := g.ExpJobs(jobs, c)
	if len(got) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(got), len(jobs))
	}
	want := make(map[string]int)
	for i, j := range jobs {
		want[j.Label]++
		if w := new(big.Int).Exp(j.Base, j.Exp, g.P); got[i].Cmp(w) != 0 {
			t.Errorf("job %d (%d-bit exponent, %s): differs from big.Int.Exp", i, j.Exp.BitLen(), j.Label)
		}
	}
	if tally := c.Snapshot(); !maps.Equal(tally, want) || c.Total() != len(jobs) {
		t.Errorf("counted %v (total %d), want %v", tally, c.Total(), want)
	}
	return c.Snapshot()
}

// TestExpJobsMatchesSerial mixes bases, exponents and labels in one batch
// — short shares, full-length exponents, exponent 0 and base 1 — and
// requires results equal to big.Int.Exp and identical per-label tallies at
// pool widths 1, 2 and 8, for the full batch and for its empty and
// single-job prefixes.
func TestExpJobsMatchesSerial(t *testing.T) {
	g := Group512
	elem := func() *big.Int { return g.PowG(g.MustShare(), nil, "") }
	labels := []string{OpKeyEncrypt, OpShareUpdate, OpLongTermKey, OpSessionKey}
	var jobs []Job
	for i := 0; i < 12; i++ {
		exp := g.MustShare()
		if i%2 == 1 {
			exp = fullExponent(t, g)
		}
		jobs = append(jobs, Job{Base: elem(), Exp: exp, Label: labels[i%len(labels)]})
	}
	jobs = append(jobs,
		Job{Base: elem(), Exp: big.NewInt(0), Label: OpShareRemove},
		Job{Base: big.NewInt(1), Exp: fullExponent(t, g), Label: OpKeyDecrypt},
		Job{Base: g.G, Exp: g.MustShare(), Label: OpSessionKey},
	)

	var ref []map[string]int
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			withWorkers(workers, func() {
				var tallies []map[string]int
				for _, n := range []int{0, 1, len(jobs)} {
					tallies = append(tallies, checkJobs(t, g, jobs[:n]))
				}
				if ref == nil {
					ref = tallies
					return
				}
				for i := range tallies {
					if !maps.Equal(tallies[i], ref[i]) {
						t.Errorf("batch %d: tally %v differs from the serial run's %v", i, tallies[i], ref[i])
					}
				}
			})
		})
	}
}

// TestExpBatchMatchesSerial runs the two uniform shapes the protocols
// batch — one exponent folded into many bases (a Cliques broadcast) and
// one base blinded under many exponents (a CKD key distribution) — at
// each pool width. Unlike the mixed batch, every job here shares one
// *big.Int with every other job, read by all workers at once.
func TestExpBatchMatchesSerial(t *testing.T) {
	g := Group512
	base := g.PowG(g.MustShare(), nil, "")
	var exps, bases []*big.Int
	for i := 0; i < 9; i++ {
		bases = append(bases, g.PowG(g.MustShare(), nil, ""))
		exps = append(exps, g.MustShare(), fullExponent(t, g))
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			withWorkers(workers, func() {
				for _, exp := range exps[:2] {
					jobs := make([]Job, len(bases))
					for i, b := range bases {
						jobs[i] = Job{Base: b, Exp: exp, Label: OpShareUpdate}
					}
					checkJobs(t, g, jobs)
				}
				jobs := make([]Job, len(exps))
				for i, e := range exps {
					jobs[i] = Job{Base: base, Exp: e, Label: OpKeyEncrypt}
				}
				checkJobs(t, g, jobs)
			})
		})
	}
}

func TestExpBatchEmptyAndSingle(t *testing.T) {
	g := Group512
	exp := g.MustShare()
	if got := g.ExpJobs(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	got := g.ExpJobs([]Job{{Base: g.G, Exp: exp}}, nil)
	if want := new(big.Int).Exp(g.G, exp, g.P); len(got) != 1 || got[0].Cmp(want) != 0 {
		t.Fatalf("single-job batch without a counter differs from Exp")
	}
}

func TestBatchWorkersClamping(t *testing.T) {
	withWorkers(0, func() {
		if w := BatchWorkers(0); w != 1 {
			t.Errorf("BatchWorkers(0) = %d, want 1", w)
		}
		if w := BatchWorkers(1); w != 1 {
			t.Errorf("BatchWorkers(1) = %d, want 1", w)
		}
	})
	withWorkers(4, func() {
		if w := BatchWorkers(100); w != 4 {
			t.Errorf("BatchWorkers(100) = %d, want 4", w)
		}
		if w := BatchWorkers(2); w != 2 {
			t.Errorf("BatchWorkers(2) = %d, want 2", w)
		}
	})
}
