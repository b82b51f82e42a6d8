package dh

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func checkJacobi(t *testing.T, x, p *big.Int) {
	t.Helper()
	if got, want := jacobi(x, p), big.Jacobi(x, p); got != want {
		t.Fatalf("jacobi(%#x, %#x) = %d, big.Jacobi = %d", x, p, got, want)
	}
}

// jacobiEdgeValues lists inputs at the ends of [0, p] and around powers
// of two, where the binary steps run longest.
func jacobiEdgeValues(p *big.Int) []*big.Int {
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(2)), new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Set(p), new(big.Int).Add(p, big.NewInt(2))}
	for k := 1; k < p.BitLen(); k += 3 {
		pow := new(big.Int).Lsh(big.NewInt(1), uint(k))
		vals = append(vals, pow,
			new(big.Int).Sub(p, pow),
			new(big.Int).Add(pow, big.NewInt(1)))
	}
	return vals
}

// randOdd draws a uniform odd number of exactly the given bit length.
func randOdd(t *testing.T, bits int) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
	if err != nil {
		t.Fatal(err)
	}
	v.SetBit(v, bits-1, 1)
	return v.SetBit(v, 0, 1)
}

func TestJacobiMatchesBig(t *testing.T) {
	for _, g := range []*Group{Group512, Group768, Group1024, Group2048} {
		for _, x := range jacobiEdgeValues(g.P) {
			checkJacobi(t, x, g.P)
		}
		for range 2000 {
			x, err := rand.Int(rand.Reader, g.P)
			if err != nil {
				t.Fatal(err)
			}
			checkJacobi(t, x, g.P)
		}
	}
	// Odd composite moduli a·b, with x coprime to them (w.h.p.) and with
	// x = a·c, whose gcd a > 1 keeps f from reaching 1 and so drives the
	// kernel into its big.Jacobi fallback.
	for _, bits := range []int{64, 128, 256, 512, 1024, 2048} {
		for range 20 {
			a, b := randOdd(t, bits/2), randOdd(t, bits/2)
			p := new(big.Int).Mul(a, b)
			x, err := rand.Int(rand.Reader, p)
			if err != nil {
				t.Fatal(err)
			}
			checkJacobi(t, x, p)
			shared := new(big.Int).Mul(a, new(big.Int).Mod(x, b))
			checkJacobi(t, shared, p)
			for _, e := range jacobiEdgeValues(p)[:7] {
				checkJacobi(t, e, p)
			}
		}
	}
	// Past the kernel's limits: negative x and a modulus above 2048 bits.
	checkJacobi(t, big.NewInt(-3), Group512.P)
	wide := randOdd(t, maxJacobiBits+64)
	checkJacobi(t, Group2048.P, wide)
	checkJacobi(t, big.NewInt(5), big.NewInt(1))
}

func TestJacobiAllocs(t *testing.T) {
	x := Group1024.PowG(Group1024.MustShare(), nil, "")
	if n := testing.AllocsPerRun(20, func() { jacobi(x, Group1024.P) }); n != 0 {
		t.Fatalf("jacobi allocated %.0f times per call", n)
	}
}

// FuzzJacobi compares the kernel with big.Jacobi on arbitrary x and odd
// p, either of them past the kernel's 2048-bit limit and x possibly
// negative.
func FuzzJacobi(f *testing.F) {
	f.Add([]byte{0}, []byte{1}, false)
	f.Add([]byte{2}, []byte{7}, false)
	f.Add([]byte{3}, []byte{9}, true)
	f.Add([]byte{6}, []byte{9}, false) // gcd 3
	f.Add(Group512.G.Bytes(), Group512.P.Bytes(), false)
	f.Add(new(big.Int).Sub(Group1024.P, big.NewInt(1)).Bytes(), Group1024.P.Bytes(), false)
	f.Add(new(big.Int).Lsh(big.NewInt(1), 1000).Bytes(), Group1024.P.Bytes(), false)
	f.Add(Group2048.P.Bytes(), append(Group2048.P.Bytes(), 1), false)
	f.Fuzz(func(t *testing.T, xb, pb []byte, neg bool) {
		if len(xb) > 300 || len(pb) > 300 {
			return // bound the work per input
		}
		x := new(big.Int).SetBytes(xb)
		if neg {
			x.Neg(x)
		}
		p := new(big.Int).SetBytes(pb)
		p.SetBit(p, 0, 1)
		checkJacobi(t, x, p)
	})
}

// TestCheckElementAcceptsExactlySubgroup checks both sides of membership in
// every group: a square r² mod p is accepted, and its negation is not,
// since p = 3 (mod 4) makes -1, and so -r², a non-residue.
func TestCheckElementAcceptsExactlySubgroup(t *testing.T) {
	for _, g := range []*Group{Group512, Group768, Group1024, Group2048} {
		for range 200 {
			r, err := rand.Int(rand.Reader, g.P)
			if err != nil {
				t.Fatal(err)
			}
			sq := new(big.Int).Mul(r, r)
			sq.Mod(sq, g.P)
			if sq.Cmp(big.NewInt(1)) <= 0 {
				continue // r in {0, 1, p-1}
			}
			if err := g.CheckElement(sq); err != nil {
				t.Fatalf("%d-bit group rejected the square %#x: %v", g.Bits, sq, err)
			}
			if err := g.CheckElement(new(big.Int).Sub(g.P, sq)); err == nil {
				t.Fatalf("%d-bit group accepted the non-residue p-%#x", g.Bits, sq)
			}
		}
	}
}
