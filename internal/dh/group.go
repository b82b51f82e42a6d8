// Package dh implements the Diffie-Hellman group arithmetic that underlies
// both key-agreement protocols in the paper (Cliques group Diffie-Hellman and
// the centralized CKD protocol of Appendix A).
//
// The package works in the prime-order subgroup of Z_p* for a safe prime
// p = 2q + 1. Private shares are short exponents, drawn from [2, 2^256)
// (see NewShare); exponents derived from them, such as products and
// inverses mod q, range over all of [1, q-1]. Public values are subgroup
// elements. All modular exponentiations can be routed through a
// Counter so that the exponentiation accounting of the paper's Tables 2-4 can
// be regenerated from the implementation rather than re-derived on paper.
package dh

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Predefined safe-prime groups. Group512 matches the modulus size used in the
// paper's experiments (OpenSSL DH with a 512-bit modulus); the larger groups
// exist for the modulus-size ablation.
var (
	// Group512 is a 512-bit safe-prime group.
	Group512 = mustGroup(512,
		"c53305848a192f94d11818af143671291068586b0b4c3f299f9b964e4f99d04b441b093bfedee80c68baf3aa810611338bde74399cf9fc5ee3c8ec2516fcb897")

	// Group768 is a 768-bit safe-prime group.
	Group768 = mustGroup(768,
		"f1c6a7cf9df039697a3a11fa5b907671a4228bdfc87e913b4a874d7d6fb39475f7699111baccf08ab99e9ebc8d43a496294585e58b76474150a10a64dceab98544b0f433b67a2d8833c70d5be9ebb95603c1e10359a14c291aa1f62feb9b4e23")

	// Group2048 is a 2048-bit safe-prime group. On 2026 hardware its
	// exponentiation cost (~2.5 ms) matches the paper's 512-bit cost on
	// the 1999 Pentium testbed, so it calibrates timing reproductions.
	Group2048 = mustGroup(2048,
		"f7750e35bbccaf30e06ca6068dd4a76540d84fb45b2c47c37264ab0d256c46071f1c598b3289ed389077964521ad3687b2f88ab7941c475214cce45153294672da64381996a2749e674718a29c28d7de35363fad20f9626b102a5ccf5ab17fa75aa751dae58826559f97afcd61e7f8f6725e46dd1669b2a9124a08a15398161ceb32ccc5399927795c4fc0e53ed8f4dd9d5906b3c5d0f497cfbfb042f70bec301490bac696f012c97b43e7d7011e0f54efe8f87bd0255ce50ec38053828002b12cdbd8b8c868b30cd7774d4d8c7dc7dc5da130422b34495367a1cab1694f91e47949521fa39921fbc304132945518e3325f5d8fdcb4bdd963841f981258eaba3")

	// Group1024 is a 1024-bit safe-prime group.
	Group1024 = mustGroup(1024,
		"f9f7a4d62b03579b42966a7a0d64d3211557b6dde5dc9594cb35e96b8cfb897e795b0f26c55db61316bfaa9aaa8e3c5ef30b9078c189ff873fa54d8af3ff68bf0e2fd4d02d071a08f51abb18494f35c0188c141cbcda20812eef06f39fd80f9ef86fa74e0f975cedf2412a289ed4e53519292e9368cd077c76338e255510341b")
)

// Errors returned by group operations.
var (
	ErrNotInGroup    = errors.New("dh: value is not an element of the prime-order subgroup")
	ErrBadShare      = errors.New("dh: private share out of range")
	ErrNotInvertible = errors.New("dh: exponent is not invertible modulo the group order")
)

// Group describes a safe-prime Diffie-Hellman group: p = 2q + 1 with p, q
// prime, and a generator G of the order-q subgroup of Z_p*.
type Group struct {
	// P is the safe-prime modulus.
	P *big.Int
	// Q is the subgroup order, (P-1)/2.
	Q *big.Int
	// G generates the order-Q subgroup.
	G *big.Int
	// Bits is the size of P in bits.
	Bits int
}

func mustGroup(bits int, pHex string) *Group {
	p, ok := new(big.Int).SetString(pHex, 16)
	if !ok {
		panic(fmt.Sprintf("dh: bad embedded prime for %d-bit group", bits))
	}
	q := new(big.Int).Rsh(p, 1) // (p-1)/2
	// 4 = 2^2 is a quadratic residue mod any safe prime, and any
	// non-identity quadratic residue generates the full order-q subgroup.
	g := big.NewInt(4)
	return &Group{P: p, Q: q, G: g, Bits: bits}
}

// GroupForBits returns the predefined group with the given modulus size.
func GroupForBits(bits int) (*Group, error) {
	switch bits {
	case 512:
		return Group512, nil
	case 768:
		return Group768, nil
	case 1024:
		return Group1024, nil
	case 2048:
		return Group2048, nil
	default:
		return nil, fmt.Errorf("dh: no predefined %d-bit group", bits)
	}
}

// Exp computes base^exp mod p, recording one exponentiation against the
// counter under the given label. A nil counter skips instrumentation.
func (g *Group) Exp(base, exp *big.Int, c *Counter, label string) *big.Int {
	if c != nil {
		c.Inc(label)
	}
	return new(big.Int).Exp(base, exp, g.P)
}

// PowG computes G^exp mod p with counting. It runs on the group's cached
// fixed-base comb table (built lazily on first use, see FixedBase): the
// result is bit-identical to Exp(g.G, exp, ...) at a fraction of the cost,
// and it still counts as exactly one exponentiation — the optimization
// never changes the paper's Table 2-4 accounting.
func (g *Group) PowG(exp *big.Int, c *Counter, label string) *big.Int {
	if c != nil {
		c.Inc(label)
	}
	return g.fixedBase().Exp(exp)
}

// Mul computes a*b mod p (not counted: multiplication cost is negligible next
// to exponentiation, and the paper's tables count exponentiations only).
func (g *Group) Mul(a, b *big.Int) *big.Int {
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, g.P)
}

// shareBits is the length of a private share. In a safe-prime group the
// only proper subgroups have order 2 and q, so the van Oorschot–Wiener
// short-exponent attack does not apply and the best attack on the
// exponent is Pollard lambda at ~2^(shareBits/2) steps: 2^128, the
// exponent length RFC 7919 §5.2 sizes for 128-bit security. At 512 and
// 1024 bits the modulus, not the exponent, is the weaker link.
const shareBits = 256

// NewShare draws a uniform private share in [2, 2^256) from r, or in
// [2, q-1] for a group whose q is below 2^256. Every exponent a protocol
// draws comes from here, so every exponentiation by a fresh share is a
// short one; exponents computed from shares (share·f mod q, inverses mod q)
// stay full length, and CheckShare accepts the whole of [2, q-1].
func (g *Group) NewShare(r io.Reader) (*big.Int, error) {
	bound := new(big.Int).Lsh(big.NewInt(1), shareBits)
	if bound.Cmp(g.Q) > 0 {
		bound.Set(g.Q)
	}
	max := bound.Sub(bound, big.NewInt(2)) // size of [2, bound)
	for {
		v, err := rand.Int(r, max)
		if err != nil {
			return nil, fmt.Errorf("draw share: %w", err)
		}
		v.Add(v, big.NewInt(2))
		// A share must be invertible mod q for the factor-out steps of
		// Cliques MERGE and for CKD blinding removal. q is prime, so
		// everything in [2, q-1] is invertible; the check is kept for
		// safety against future non-prime-order groups.
		if new(big.Int).GCD(nil, nil, v, g.Q).Cmp(big.NewInt(1)) == 0 {
			return v, nil
		}
	}
}

// MustShare draws a share from crypto/rand and panics on failure. Intended
// for tests and benchmarks only.
func (g *Group) MustShare() *big.Int {
	s, err := g.NewShare(rand.Reader)
	if err != nil {
		panic(err)
	}
	return s
}

// InverseQ returns exp^-1 mod q, used to factor a private share out of a
// partial key (Cliques MERGE step 4) and to strip CKD blinding.
func (g *Group) InverseQ(exp *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(exp, g.Q)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// ReduceQ maps a group element to an exponent by reducing it modulo q. CKD
// uses subgroup elements as blinding exponents (Ks^(alpha^(r1*ri))); reducing
// mod q keeps exponent arithmetic in Z_q where inverses exist.
func (g *Group) ReduceQ(v *big.Int) *big.Int {
	return new(big.Int).Mod(v, g.Q)
}

// CheckElement verifies that v is a non-identity element of the order-q
// subgroup: 1 < v < p and v is a quadratic residue mod p. For a safe prime
// p = 2q+1 the order-q subgroup is exactly the set of quadratic residues,
// so the Jacobi symbol decides membership without a counted modular
// exponentiation, which would distort the paper's Tables 2-4 accounting.
// A Jacobi symbol is not automatically cheap, though: at 1024 bits
// big.Jacobi costs about as much as one Exp by a 256-bit share and makes
// ~360 allocations, and key-agreement modules validate every received
// value, ~n² checks per Cliques join. CheckElement therefore uses the
// allocation-free word-level kernel jacobi, ~7x faster on a 2-core Xeon VM
// (BenchmarkCheckElement).
func (g *Group) CheckElement(v *big.Int) error {
	if v == nil || v.Cmp(big.NewInt(1)) <= 0 || v.Cmp(g.P) >= 0 {
		return ErrNotInGroup
	}
	if jacobi(v, g.P) != 1 {
		return ErrNotInGroup
	}
	return nil
}

// CheckShare verifies that s is a usable private share: 1 < s < q.
func (g *Group) CheckShare(s *big.Int) error {
	if s == nil || s.Cmp(big.NewInt(1)) <= 0 || s.Cmp(g.Q) >= 0 {
		return ErrBadShare
	}
	return nil
}
