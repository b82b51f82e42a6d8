package dh

import (
	"fmt"
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

func TestExpBatchMatchesSerial(t *testing.T) {
	g := Group512
	exps := []*big.Int{g.MustShare(), fullExponent(t, g)}
	bases := make(map[string]*big.Int)
	for i := 0; i < 9; i++ {
		bases[fmt.Sprintf("m%d", i)] = g.PowG(g.MustShare(), nil, "")
	}

	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			withWorkers(workers, func() {
				for _, exp := range exps {
					c := NewCounter()
					got := g.ExpBatch(bases, exp, c, OpKeyEncrypt)
					if len(got) != len(bases) {
						t.Fatalf("got %d entries, want %d", len(got), len(bases))
					}
					for name, b := range bases {
						if want := new(big.Int).Exp(b, exp, g.P); got[name].Cmp(want) != 0 {
							t.Errorf("%d-bit exponent: entry %s differs from serial Exp", exp.BitLen(), name)
						}
					}
					if c.Get(OpKeyEncrypt) != len(bases) || c.Total() != len(bases) {
						t.Errorf("counted %d under label, %d total; want %d of each",
							c.Get(OpKeyEncrypt), c.Total(), len(bases))
					}
				}
			})
		})
	}
}

func TestExpBatchSliceMatchesSerial(t *testing.T) {
	g := Group512
	for _, exp := range []*big.Int{g.MustShare(), fullExponent(t, g)} {
		var bases []*big.Int
		for i := 0; i < 7; i++ {
			bases = append(bases, g.PowG(g.MustShare(), nil, ""))
		}
		var serial, parallel []*big.Int
		c1, c2 := NewCounter(), NewCounter()
		withWorkers(1, func() { serial = g.ExpBatchSlice(bases, exp, c1, OpShareUpdate) })
		withWorkers(4, func() { parallel = g.ExpBatchSlice(bases, exp, c2, OpShareUpdate) })
		for i := range bases {
			if serial[i].Cmp(parallel[i]) != 0 {
				t.Errorf("slice entry %d: serial != parallel", i)
			}
			if want := new(big.Int).Exp(bases[i], exp, g.P); serial[i].Cmp(want) != 0 {
				t.Errorf("slice entry %d: differs from generic Exp", i)
			}
		}
		if c1.Total() != c2.Total() || c1.Get(OpShareUpdate) != c2.Get(OpShareUpdate) {
			t.Errorf("counter parity broken: serial %d, parallel %d", c1.Total(), c2.Total())
		}
	}
}

func TestExpBatchExpsMatchesSerial(t *testing.T) {
	g := Group512
	base := g.PowG(g.MustShare(), nil, "")
	exps := make(map[string]*big.Int)
	for i := 0; i < 6; i++ {
		exps[fmt.Sprintf("short%d", i)] = g.MustShare()
		exps[fmt.Sprintf("full%d", i)] = fullExponent(t, g)
	}
	var serial, parallel map[string]*big.Int
	c1, c2 := NewCounter(), NewCounter()
	withWorkers(1, func() { serial = g.ExpBatchExps(base, exps, c1, OpKeyEncrypt) })
	withWorkers(8, func() { parallel = g.ExpBatchExps(base, exps, c2, OpKeyEncrypt) })
	for name := range exps {
		if serial[name].Cmp(parallel[name]) != 0 {
			t.Errorf("entry %s: serial != parallel", name)
		}
		if want := new(big.Int).Exp(base, exps[name], g.P); serial[name].Cmp(want) != 0 {
			t.Errorf("entry %s: differs from generic Exp", name)
		}
	}
	if c1.Total() != c2.Total() {
		t.Errorf("counter parity broken: serial %d, parallel %d", c1.Total(), c2.Total())
	}
}

func TestExpBatchEmptyAndSingle(t *testing.T) {
	g := Group512
	exp := g.MustShare()
	if got := g.ExpBatch(nil, exp, nil, ""); len(got) != 0 {
		t.Fatalf("empty batch returned %d entries", len(got))
	}
	one := map[string]*big.Int{"a": g.G}
	got := g.ExpBatch(one, exp, nil, "")
	if want := new(big.Int).Exp(g.G, exp, g.P); got["a"].Cmp(want) != 0 {
		t.Fatalf("single-entry batch differs from Exp")
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
