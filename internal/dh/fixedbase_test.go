package dh

import (
	"math/big"
	"testing"
)

func TestFixedBaseMatchesGenericExp(t *testing.T) {
	for _, g := range []*Group{Group512, Group1024} {
		fb := g.fixedBase()
		exps := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(g.Q, big.NewInt(1)),
			new(big.Int).Set(g.Q),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
			new(big.Int).Lsh(big.NewInt(1), 256),
		}
		for i := 0; i < 32; i++ {
			exps = append(exps, g.MustShare(), fullExponent(t, g))
		}
		for _, e := range exps {
			want := new(big.Int).Exp(g.G, e, g.P)
			if got := fb.Exp(e); got.Cmp(want) != 0 {
				t.Fatalf("bits=%d e=%v: fixed-base %v != generic %v", g.Bits, e, got, want)
			}
		}
	}
}

func TestFixedBaseFallback(t *testing.T) {
	g := Group512
	fb := g.fixedBase()
	// Wider than the table capacity: must fall back to the generic path
	// and still be exact.
	wide := new(big.Int).Lsh(big.NewInt(1), uint(g.Q.BitLen())+13)
	wide.Add(wide, big.NewInt(5))
	if got, want := fb.Exp(wide), new(big.Int).Exp(g.G, wide, g.P); got.Cmp(want) != 0 {
		t.Fatalf("wide exponent: fixed-base %v != generic %v", got, want)
	}
	neg := big.NewInt(-3)
	if got, want := fb.Exp(neg), new(big.Int).Exp(g.G, neg, g.P); got.Cmp(want) != 0 {
		t.Fatalf("negative exponent: fixed-base %v != generic %v", got, want)
	}
}

func TestFixedBaseArbitraryBase(t *testing.T) {
	g := Group512
	base := g.PowG(g.MustShare(), nil, "")
	fb := NewFixedBase(g, base, 0)
	for i := 0; i < 8; i++ {
		e := g.MustShare()
		want := new(big.Int).Exp(base, e, g.P)
		if got := fb.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("arbitrary base: fixed-base != generic for e=%v", e)
		}
	}
}

func TestPowGUsesFixedBaseAndCounts(t *testing.T) {
	g := Group512
	c := NewCounter()
	e := g.MustShare()
	got := g.PowG(e, c, OpSessionKey)
	if want := new(big.Int).Exp(g.G, e, g.P); got.Cmp(want) != 0 {
		t.Fatalf("PowG = %v, want %v", got, want)
	}
	if c.Get(OpSessionKey) != 1 || c.Total() != 1 {
		t.Fatalf("PowG counted %d/%d, want exactly one", c.Get(OpSessionKey), c.Total())
	}
}
