package dh

import (
	"math/big"
	"math/bits"
)

// jacobi returns the Jacobi symbol (x/p) for odd p > 0, equal to
// big.Jacobi(x, p) on every input, without allocating.
//
// It runs the binary "posdivsteps" of Bernstein and Yang (TCHES 2019, as
// in libsecp256k1's jacobi64_maybe_var) on f = p, g = x. Each step keeps
// f odd and f, g >= 0, so the symbol (g/f) changes only by known signs:
//   - g even: g <- g/2, sign flips if f = 3 or 5 (mod 8);
//   - g odd, delta > 0: swap f and g, sign flips if both are 3 (mod 4),
//     then step as below with delta negated;
//   - g odd: g <- (g+f)/2, sign flips as for a halving.
//
// Every decision reads only the low bits of f and g, so batches of
// batchSteps steps run on one word of each, with runs of additions folded
// into one multiply as in libsecp256k1, and yield a non-negative matrix
// M with 2^batchSteps·(f', g') = M·(f, g), which one pass applies to the
// full numbers. The loop ends at f = 1, where (g/1) = 1. When gcd(x, p) > 1
// f never reaches 1; that, a modulus above maxJacobiBits and a negative x
// all fall back to big.Jacobi.
func jacobi(x, p *big.Int) int {
	if x.Sign() < 0 || p.Sign() <= 0 || p.Bit(0) == 0 ||
		x.BitLen() > maxJacobiBits || p.BitLen() > maxJacobiBits {
		return big.Jacobi(x, p)
	}
	var fa, ga [maxJacobiBits / 64]uint64
	loadWords(&fa, p)
	loadWords(&ga, x)
	n := (max(p.BitLen(), x.BitLen()) + 63) / 64
	f, g := fa[:n], ga[:n]

	// Convergence takes ~3·bits steps on average and at most ~1.35x that
	// on the worst inputs measured; past 6·bits, give up.
	limit := 6*64*n/batchSteps + 4
	delta, sign := 1, uint64(0)
	for range limit {
		if isOne(f) {
			return 1 - 2*int(sign&1)
		}
		var m [4]uint64
		delta, m = divsteps(delta, f[0], g[0], &sign)
		applyMatrix(f, g, m)
		for n > 1 && f[n-1]|g[n-1] == 0 {
			n--
			f, g = f[:n], g[:n]
		}
	}
	return big.Jacobi(x, p)
}

const (
	maxJacobiBits = 2048
	// batchSteps keeps the matrix entries of one batch at or below 2^60.
	// After i steps only the low 64-i bits of each word are exact; the
	// remaining 60-i steps read at most 63-i of them.
	batchSteps = 60
)

// loadWords copies |x| into dst as little-endian 64-bit words, for any
// big.Word size.
func loadWords(dst *[maxJacobiBits / 64]uint64, x *big.Int) {
	for i, w := range x.Bits() {
		dst[i*bits.UintSize/64] |= uint64(w) << (uint(i*bits.UintSize) % 64)
	}
}

func isOne(f []uint64) bool {
	for _, w := range f[1:] {
		if w != 0 {
			return false
		}
	}
	return f[0] == 1
}

// divsteps runs batchSteps posdivsteps on the low words f, g and returns
// the new delta and the matrix {u, v, q, r}: 2^batchSteps·f' = u·f + v·g
// and 2^batchSteps·g' = q·f + r·g. Sign flips accumulate in bit 0 of *sign.
func divsteps(delta int, f, g uint64, sign *uint64) (int, [4]uint64) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	s := *sign
	for i := 0; ; {
		// Halve g over its trailing zeros, at most up to the batch end.
		z := bits.TrailingZeros64(g | 1<<(batchSteps-i))
		g >>= z
		u <<= z
		v <<= z
		delta += z
		i += z
		s ^= uint64(z) & (f>>1 ^ f>>2)
		if i == batchSteps {
			break
		}
		if delta > 0 {
			delta = -delta
			f, g = g, f
			u, q = q, u
			v, r = r, v
			s ^= (f & g) >> 1
		}
		// g is odd and the next 1-delta steps cannot swap, so their
		// additions of f fold into one: g += w·f with w = -g/f mod 2^k
		// clears the low k bits, which the halvings above then consume;
		// f·(2-f²) is 1/f mod 64. The wrapped carry of the sum lies in
		// the word's undetermined high bits.
		k := min(1-delta, batchSteps-i, 6)
		w := (f * g * (f*f - 2)) & (1<<k - 1)
		g += f * w
		q += u * w
		r += v * w
	}
	*sign = s
	return delta, [4]uint64{u, v, q, r}
}

// applyMatrix sets (f, g) <- M·(f, g) / 2^batchSteps in place. The
// division is exact and the results are no larger than max(f, g).
func applyMatrix(f, g []uint64, m [4]uint64) {
	u, v, q, r := m[0], m[1], m[2], m[3]
	var fhi, flo, ghi, glo uint64 // running 128-bit accumulators
	var fprev, gprev uint64
	for i := range f {
		fhi, flo = mulAdd2(fhi, flo, u, f[i], v, g[i])
		ghi, glo = mulAdd2(ghi, glo, q, f[i], r, g[i])
		if i > 0 {
			f[i-1] = fprev>>batchSteps | flo<<(64-batchSteps)
			g[i-1] = gprev>>batchSteps | glo<<(64-batchSteps)
		}
		fprev, gprev = flo, glo
		flo, fhi = fhi, 0
		glo, ghi = ghi, 0
	}
	last := len(f) - 1
	f[last] = fprev>>batchSteps | flo<<(64-batchSteps)
	g[last] = gprev>>batchSteps | glo<<(64-batchSteps)
}

// mulAdd2 returns (hi, lo) + a·x + b·y as a 128-bit value.
func mulAdd2(hi, lo, a, x, b, y uint64) (uint64, uint64) {
	h, l := bits.Mul64(a, x)
	var c uint64
	lo, c = bits.Add64(lo, l, 0)
	hi += h + c
	h, l = bits.Mul64(b, y)
	lo, c = bits.Add64(lo, l, 0)
	hi += h + c
	return hi, lo
}
