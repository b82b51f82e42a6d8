package dh

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

func TestGroupParameters(t *testing.T) {
	for _, g := range []*Group{Group512, Group768, Group1024, Group2048} {
		g := g
		if g.P.BitLen() != g.Bits {
			t.Errorf("%d-bit group: modulus has %d bits", g.Bits, g.P.BitLen())
		}
		if !g.P.ProbablyPrime(32) {
			t.Errorf("%d-bit group: p not prime", g.Bits)
		}
		if !g.Q.ProbablyPrime(32) {
			t.Errorf("%d-bit group: q not prime", g.Bits)
		}
		// p = 2q + 1
		want := new(big.Int).Lsh(g.Q, 1)
		want.Add(want, big.NewInt(1))
		if want.Cmp(g.P) != 0 {
			t.Errorf("%d-bit group: p != 2q+1", g.Bits)
		}
		// The generator must lie in the order-q subgroup.
		if err := g.CheckElement(g.G); err != nil {
			t.Errorf("%d-bit group: generator check: %v", g.Bits, err)
		}
	}
}

func TestGroupForBits(t *testing.T) {
	for _, bits := range []int{512, 768, 1024, 2048} {
		g, err := GroupForBits(bits)
		if err != nil {
			t.Fatalf("GroupForBits(%d): %v", bits, err)
		}
		if g.Bits != bits {
			t.Fatalf("GroupForBits(%d) returned %d-bit group", bits, g.Bits)
		}
	}
	if _, err := GroupForBits(513); err == nil {
		t.Fatal("GroupForBits(513) should fail")
	}
}

func TestTwoPartyAgreement(t *testing.T) {
	g := Group512
	a, b := g.MustShare(), g.MustShare()
	ga := g.PowG(a, nil, "")
	gb := g.PowG(b, nil, "")
	k1 := g.Exp(gb, a, nil, "")
	k2 := g.Exp(ga, b, nil, "")
	if k1.Cmp(k2) != 0 {
		t.Fatal("two-party DH keys disagree")
	}
}

func TestNewShareRange(t *testing.T) {
	g := Group512
	for i := 0; i < 64; i++ {
		s, err := g.NewShare(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckShare(s); err != nil {
			t.Fatalf("share %v out of range: %v", s, err)
		}
	}
}

// fullExponent draws uniformly from [2, q-1]: the full-length exponents
// (a controller's share·f mod q, inverses mod q, CKD's reduced blinding
// exponents) that production code passes to Exp, PowG and InverseQ
// beside the short shares NewShare draws.
func fullExponent(t testing.TB, g *Group) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, new(big.Int).Sub(g.Q, big.NewInt(2)))
	if err != nil {
		t.Fatal(err)
	}
	return v.Add(v, big.NewInt(2))
}

func TestNewShareShortExponent(t *testing.T) {
	for _, g := range []*Group{Group512, Group768, Group1024, Group2048} {
		seen := make(map[string]bool)
		for i := 0; i < 256; i++ {
			s, err := g.NewShare(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if s.Cmp(big.NewInt(1)) <= 0 || s.Cmp(g.Q) >= 0 {
				t.Fatalf("%d-bit group: share %v outside (1, q)", g.Bits, s)
			}
			if s.BitLen() > 256 {
				t.Fatalf("%d-bit group: share has %d bits, want <= 256", g.Bits, s.BitLen())
			}
			if _, err := g.InverseQ(s); err != nil {
				t.Fatalf("%d-bit group: share not invertible mod q: %v", g.Bits, err)
			}
			if seen[s.String()] {
				t.Fatalf("%d-bit group: share %v drawn twice", g.Bits, s)
			}
			seen[s.String()] = true
		}
		// Short shares still agree in two-party DH.
		a, b := g.MustShare(), g.MustShare()
		k1 := g.Exp(g.PowG(b, nil, ""), a, nil, "")
		k2 := g.Exp(g.PowG(a, nil, ""), b, nil, "")
		if k1.Cmp(k2) != 0 {
			t.Fatalf("%d-bit group: two-party DH keys disagree", g.Bits)
		}
	}
}

func TestInverseQ(t *testing.T) {
	g := Group512
	for _, s := range []*big.Int{g.MustShare(), fullExponent(t, g)} {
		inv, err := g.InverseQ(s)
		if err != nil {
			t.Fatal(err)
		}
		prod := new(big.Int).Mul(s, inv)
		prod.Mod(prod, g.Q)
		if prod.Cmp(big.NewInt(1)) != 0 {
			t.Fatal("s * s^-1 != 1 mod q")
		}
		// Exponentiating by a share and then its inverse is the
		// identity on subgroup elements: the algebra Cliques MERGE
		// relies on.
		base := g.PowG(g.MustShare(), nil, "")
		up := g.Exp(base, s, nil, "")
		down := g.Exp(up, inv, nil, "")
		if down.Cmp(base) != 0 {
			t.Fatal("exp/inverse-exp round trip failed")
		}
	}
}

func TestInverseQNotInvertible(t *testing.T) {
	g := Group512
	if _, err := g.InverseQ(new(big.Int).Set(g.Q)); err == nil {
		t.Fatal("q has no inverse mod q; expected error")
	}
	if _, err := g.InverseQ(big.NewInt(0)); err == nil {
		t.Fatal("0 has no inverse mod q; expected error")
	}
}

func TestCheckElementRejectsOutsiders(t *testing.T) {
	g := Group512
	cases := []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Set(g.P),
		new(big.Int).Add(g.P, big.NewInt(5)),
		new(big.Int).Neg(big.NewInt(3)),
	}
	for _, v := range cases {
		if err := g.CheckElement(v); err == nil {
			t.Errorf("CheckElement(%v) accepted a non-element", v)
		}
	}
	// An element of order 2q (a non-residue) must be rejected too. For a
	// safe prime, -1 = p-1 has order 2.
	minusOne := new(big.Int).Sub(g.P, big.NewInt(1))
	if err := g.CheckElement(minusOne); err == nil {
		t.Error("CheckElement accepted p-1 (order-2 element)")
	}
}

func TestCheckShareRejectsOutOfRange(t *testing.T) {
	g := Group512
	for _, s := range []*big.Int{nil, big.NewInt(0), big.NewInt(1), new(big.Int).Set(g.Q), new(big.Int).Add(g.Q, big.NewInt(1))} {
		if err := g.CheckShare(s); err == nil {
			t.Errorf("CheckShare(%v) accepted an out-of-range share", s)
		}
	}
	if err := g.CheckShare(big.NewInt(2)); err != nil {
		t.Errorf("CheckShare(2): %v", err)
	}
}

// Property: for random shares, exponentiation commutes — the foundation of
// every group-DH identity used by Cliques.
func TestExpCommutesProperty(t *testing.T) {
	g := Group512
	f := func(seedA, seedB int64) bool {
		a := new(big.Int).Mod(big.NewInt(seedA), g.Q)
		b := new(big.Int).Mod(big.NewInt(seedB), g.Q)
		a.Add(a.Abs(a), big.NewInt(2))
		b.Add(b.Abs(b), big.NewInt(2))
		x := g.Exp(g.PowG(a, nil, ""), b, nil, "")
		y := g.Exp(g.PowG(b, nil, ""), a, nil, "")
		return x.Cmp(y) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMul(t *testing.T) {
	g := Group512
	a := g.PowG(g.MustShare(), nil, "")
	b := g.PowG(g.MustShare(), nil, "")
	ab := g.Mul(a, b)
	if ab.Cmp(g.P) >= 0 || ab.Sign() <= 0 {
		t.Fatal("Mul result out of range")
	}
	// The product of two subgroup elements is a subgroup element.
	if err := g.CheckElement(ab); err != nil {
		t.Fatalf("product left the subgroup: %v", err)
	}
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc(OpSessionKey)
	c.Inc(OpSessionKey)
	c.Inc(OpKeyEncrypt)
	if got := c.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	if got := c.Get(OpSessionKey); got != 2 {
		t.Fatalf("Get(session) = %d, want 2", got)
	}
	snap := c.Snapshot()
	if snap[OpKeyEncrypt] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	labels := c.Labels()
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	c.Reset()
	if c.Total() != 0 || c.Get(OpSessionKey) != 0 {
		t.Fatal("Reset did not clear the counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc(OpShareUpdate)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(OpShareUpdate); got != 800 {
		t.Fatalf("concurrent count = %d, want 800", got)
	}
}

func TestExpCounts(t *testing.T) {
	g := Group512
	c := NewCounter()
	s := g.MustShare()
	g.PowG(s, c, OpSessionKey)
	g.Exp(g.G, s, c, OpKeyEncrypt)
	if c.Total() != 2 {
		t.Fatalf("expected 2 counted exponentiations, got %d", c.Total())
	}
	// nil counter must not panic and must not count.
	g.PowG(s, nil, OpSessionKey)
	if c.Total() != 2 {
		t.Fatal("nil-counter exponentiation was counted")
	}
}

func TestReduceQ(t *testing.T) {
	g := Group512
	v := new(big.Int).Add(g.Q, big.NewInt(7))
	r := g.ReduceQ(v)
	if r.Cmp(big.NewInt(7)) != 0 {
		t.Fatalf("ReduceQ = %v, want 7", r)
	}
}

func BenchmarkModExp512(b *testing.B) {
	benchModExp(b, Group512)
}

func BenchmarkModExp1024(b *testing.B) {
	benchModExp(b, Group1024)
}

func benchModExp(b *testing.B, g *Group) {
	s := g.MustShare()
	base := g.PowG(g.MustShare(), nil, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Exp(base, s, nil, "")
	}
}
