package crypt

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"hash"
	"sync"
)

// The steady-state data path seals and opens one frame per multicast, and
// at the paper's target rates that is thousands of frames per second per
// daemon. hmac.New rehashes both key pads and allocates two SHA-256 states
// on every call — by far the largest allocation in Seal/Open once the
// frame itself is written in place. Each suite therefore keeps its HMAC
// states in a sync.Pool: Reset restores the precomputed key pads, so a
// recycled state costs zero allocations and two fewer block hashes.

// macPool is a pool of ready-keyed HMAC-SHA256 states.
type macPool struct {
	key  []byte
	pool sync.Pool
}

func newMACPool(key []byte) *macPool {
	p := &macPool{key: append([]byte(nil), key...)}
	p.pool.New = func() any { return hmac.New(sha256.New, p.key) }
	return p
}

// get returns a reset HMAC state; pair with put.
func (p *macPool) get() hash.Hash {
	m := p.pool.Get().(hash.Hash)
	m.Reset()
	return m
}

func (p *macPool) put(m hash.Hash) { p.pool.Put(m) }

// sumAppend appends the HMAC tag over body to dst (which must have macSize
// spare capacity to stay allocation-free). body is typically a tail region
// of dst, as in the SealAppend fast paths.
func (p *macPool) sumAppend(dst, body []byte) []byte {
	m := p.get()
	m.Write(body)
	dst = m.Sum(dst)
	p.put(m)
	return dst
}

// verify checks tag over body in constant time without allocating.
func (p *macPool) verify(body, tag []byte) bool {
	var sum [macSize]byte
	m := p.get()
	m.Write(body)
	got := m.Sum(sum[:0])
	p.put(m)
	return subtle.ConstantTimeCompare(got, tag) == 1
}
