// Package blowfish implements Bruce Schneier's Blowfish block cipher, the
// bulk-data cipher used by the paper's secure Spread implementation.
//
// The implementation is written from scratch against the published
// specification (16-round Feistel network, pi-derived P-array and S-boxes,
// key lengths from 32 to 448 bits) and validated against Eric Young's
// published test vectors. CBC mode is provided natively over whole buffers
// (EncryptCBC, DecryptCBC), byte-identical to crypto/cipher's CBC over the
// same Cipher; Cipher also satisfies crypto/cipher.Block.
package blowfish

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the Blowfish block size in bytes.
const BlockSize = 8

// KeySizeError records an attempt to use an invalid key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("blowfish: invalid key size %d (want 4..56 bytes)", int(k))
}

// Cipher is an instance of Blowfish keyed with a particular key.
type Cipher struct {
	p [18]uint32
	s [4][256]uint32
}

// NewCipher creates and returns a Cipher keyed with key. The key must be
// between 4 and 56 bytes (32 to 448 bits).
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) < 4 || len(key) > 56 {
		return nil, KeySizeError(len(key))
	}
	c := &Cipher{p: initP, s: initS}
	c.expandKey(key)
	return c, nil
}

// BlockSize returns the Blowfish block size, 8 bytes.
func (c *Cipher) BlockSize() int { return BlockSize }

// expandKey runs the Blowfish key schedule: XOR the key cyclically into the
// P-array, then repeatedly encrypt the all-zero block, replacing the P-array
// and S-box entries with the outputs.
func (c *Cipher) expandKey(key []byte) {
	j := 0
	for i := 0; i < 18; i++ {
		var d uint32
		for k := 0; k < 4; k++ {
			d = d<<8 | uint32(key[j])
			j++
			if j >= len(key) {
				j = 0
			}
		}
		c.p[i] ^= d
	}

	var l, r uint32
	for i := 0; i < 18; i += 2 {
		l, r = c.encryptBlock(l, r)
		c.p[i], c.p[i+1] = l, r
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < 256; k += 2 {
			l, r = c.encryptBlock(l, r)
			c.s[i][k], c.s[i][k+1] = l, r
		}
	}
}

// f is the Blowfish round function. Indexing the [256] S-boxes with bytes
// needs no bounds checks.
func f(s *[4][256]uint32, x uint32) uint32 {
	return ((s[0][byte(x>>24)] + s[1][byte(x>>16)]) ^ s[2][byte(x>>8)]) + s[3][byte(x)]
}

// encryptBlock is the one Blowfish encryption: Encrypt, EncryptCBC and the
// key schedule all run it. Each round XORs its P-array word in before the
// S-box sum, so the subkey load is off the l -> f -> r dependency chain.
// The loop is latency-bound on that chain: unrolling it measured no faster,
// and unrolling DecryptCBC's four lanes measured slower.
func (c *Cipher) encryptBlock(l, r uint32) (uint32, uint32) {
	p, s := &c.p, &c.s
	l ^= p[0]
	for i := 1; i < 17; i += 2 {
		r ^= p[i]
		r ^= f(s, l)
		l ^= p[i+1]
		l ^= f(s, r)
	}
	r ^= p[17]
	return r, l
}

// decryptBlock is the one Blowfish decryption: encryptBlock with the
// P-array reversed. Decrypt and the tail of DecryptCBC run it, and the
// four-lane body of DecryptCBC runs the same rounds.
func (c *Cipher) decryptBlock(l, r uint32) (uint32, uint32) {
	p, s := &c.p, &c.s
	l ^= p[17]
	for i := 16; i > 0; i -= 2 {
		r ^= p[i]
		r ^= f(s, l)
		l ^= p[i-1]
		l ^= f(s, r)
	}
	r ^= p[0]
	return r, l
}

// Encrypt encrypts the 8-byte block in src into dst. Dst and src may overlap.
func (c *Cipher) Encrypt(dst, src []byte) {
	l, r := c.encryptBlock(binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8]))
	binary.BigEndian.PutUint32(dst[0:4], l)
	binary.BigEndian.PutUint32(dst[4:8], r)
}

// Decrypt decrypts the 8-byte block in src into dst. Dst and src may overlap.
func (c *Cipher) Decrypt(dst, src []byte) {
	l, r := c.decryptBlock(binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8]))
	binary.BigEndian.PutUint32(dst[0:4], l)
	binary.BigEndian.PutUint32(dst[4:8], r)
}

// EncryptCBC encrypts buf in place in CBC mode under the 8-byte iv. It
// panics unless len(buf) is a multiple of BlockSize. iv is not modified.
//
// CBC encryption is serial — each block's input is the previous block's
// output — so the chaining value stays in two registers and the loop is
// one encryptBlock per block.
func (c *Cipher) EncryptCBC(iv, buf []byte) {
	if len(buf)%BlockSize != 0 {
		panic("blowfish: EncryptCBC input not full blocks")
	}
	l, r := binary.BigEndian.Uint32(iv[0:4]), binary.BigEndian.Uint32(iv[4:8])
	for ; len(buf) >= BlockSize; buf = buf[BlockSize:] {
		l, r = c.encryptBlock(l^binary.BigEndian.Uint32(buf[0:4]), r^binary.BigEndian.Uint32(buf[4:8]))
		binary.BigEndian.PutUint32(buf[0:4], l)
		binary.BigEndian.PutUint32(buf[4:8], r)
	}
}

// DecryptCBC decrypts src into dst in CBC mode under the 8-byte iv. It
// panics unless len(src) is a multiple of BlockSize and dst is at least as
// long. Dst and src may be the same slice but must not otherwise overlap;
// iv is not modified.
//
// CBC decryption has no chain between block decryptions — block i's
// plaintext needs only ciphertext blocks i-1 and i — so the body decrypts
// four blocks per iteration as interleaved lanes that the CPU overlaps,
// and the last one to three blocks go through decryptBlock.
func (c *Cipher) DecryptCBC(iv, dst, src []byte) {
	if len(src)%BlockSize != 0 {
		panic("blowfish: DecryptCBC input not full blocks")
	}
	if len(dst) < len(src) {
		panic("blowfish: DecryptCBC output smaller than input")
	}
	p, s := &c.p, &c.s
	// (cl, cr) is the previous ciphertext block: the IV, then the last
	// block of each iteration.
	cl, cr := binary.BigEndian.Uint32(iv[0:4]), binary.BigEndian.Uint32(iv[4:8])
	for ; len(src) >= 4*BlockSize; src, dst = src[4*BlockSize:], dst[4*BlockSize:] {
		src, dst := src[:4*BlockSize], dst[:4*BlockSize]
		c0l, c0r := binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8])
		c1l, c1r := binary.BigEndian.Uint32(src[8:12]), binary.BigEndian.Uint32(src[12:16])
		c2l, c2r := binary.BigEndian.Uint32(src[16:20]), binary.BigEndian.Uint32(src[20:24])
		c3l, c3r := binary.BigEndian.Uint32(src[24:28]), binary.BigEndian.Uint32(src[28:32])

		l0, r0 := c0l^p[17], c0r
		l1, r1 := c1l^p[17], c1r
		l2, r2 := c2l^p[17], c2r
		l3, r3 := c3l^p[17], c3r
		for i := 16; i > 0; i -= 2 {
			k := p[i]
			r0 ^= k
			r1 ^= k
			r2 ^= k
			r3 ^= k
			r0 ^= f(s, l0)
			r1 ^= f(s, l1)
			r2 ^= f(s, l2)
			r3 ^= f(s, l3)
			k = p[i-1]
			l0 ^= k
			l1 ^= k
			l2 ^= k
			l3 ^= k
			l0 ^= f(s, r0)
			l1 ^= f(s, r1)
			l2 ^= f(s, r2)
			l3 ^= f(s, r3)
		}
		// The Feistel output is (r ^ p[0], l); CBC XORs in the previous
		// ciphertext block.
		k := p[0]
		binary.BigEndian.PutUint32(dst[0:4], r0^k^cl)
		binary.BigEndian.PutUint32(dst[4:8], l0^cr)
		binary.BigEndian.PutUint32(dst[8:12], r1^k^c0l)
		binary.BigEndian.PutUint32(dst[12:16], l1^c0r)
		binary.BigEndian.PutUint32(dst[16:20], r2^k^c1l)
		binary.BigEndian.PutUint32(dst[20:24], l2^c1r)
		binary.BigEndian.PutUint32(dst[24:28], r3^k^c2l)
		binary.BigEndian.PutUint32(dst[28:32], l3^c2r)
		cl, cr = c3l, c3r
	}
	for ; len(src) >= BlockSize; src, dst = src[BlockSize:], dst[BlockSize:] {
		bl, br := binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8])
		l, r := c.decryptBlock(bl, br)
		binary.BigEndian.PutUint32(dst[0:4], l^cl)
		binary.BigEndian.PutUint32(dst[4:8], r^cr)
		cl, cr = bl, br
	}
}
