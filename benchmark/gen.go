package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"time"
)

// Payload layout: [8 seq][8 stamp ns][4 sender][seeded filler][4 checksum].
// The stamp is the time the message was sent (closed loop) or was due to
// be sent (open loop), on the process-wide monotonic clock.
const (
	payloadHeader = 20
	payloadMin    = payloadHeader + 4
	bodyPool      = 64 // distinct seeded bodies a generator cycles through
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// base anchors every stamp: all load comes from this process, so one
// monotonic clock serves senders and receivers.
var base = time.Now()

func nowNs() int64 { return int64(time.Since(base)) }

// generator makes every input of a run from the seed: payload bytes, think
// times and member placement. The program under test sees only what it
// generates.
type generator struct {
	size   int
	key    uint32
	bodies [][]byte
	rng    *rand.Rand
}

func newGenerator(seed uint64, size int) *generator {
	if size < payloadMin {
		panic("benchmark: payload too small for header and checksum")
	}
	rng := rand.New(rand.NewPCG(seed, 0x5ec5bead))
	g := &generator{size: size, key: rng.Uint32(), rng: rng}
	g.bodies = make([][]byte, bodyPool)
	for i := range g.bodies {
		b := make([]byte, size)
		for j := payloadHeader; j+8 <= size; j += 8 {
			binary.LittleEndian.PutUint64(b[j:], rng.Uint64())
		}
		g.bodies[i] = b
	}
	return g
}

// next stamps one of the pooled bodies for (sender, seq) and returns it.
// The slice is reused bodyPool messages later, so a member that keeps a
// reference past Send must copy it.
func (g *generator) next(sender uint32, seq uint64, stamp int64) []byte {
	b := g.bodies[seq%bodyPool]
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(stamp))
	binary.LittleEndian.PutUint32(b[16:], sender)
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli)^g.key)
	return b
}

// parsed is a verified payload's header.
type parsed struct {
	seq    uint64
	stamp  int64
	sender uint32
}

// check verifies length and seeded checksum and returns the header.
func (g *generator) check(p []byte) (parsed, bool) {
	if len(p) != g.size {
		return parsed{}, false
	}
	n := len(p) - 4
	if binary.LittleEndian.Uint32(p[n:]) != crc32.Checksum(p[:n], castagnoli)^g.key {
		return parsed{}, false
	}
	return parsed{
		seq:    binary.LittleEndian.Uint64(p[0:]),
		stamp:  int64(binary.LittleEndian.Uint64(p[8:])),
		sender: binary.LittleEndian.Uint32(p[16:]),
	}, true
}

// think draws a pause uniform in [0, 2*heartbeat): timer-coupled closed
// loops would otherwise phase-lock to the daemon heartbeat and measure
// the phase they happened to start in.
func (g *generator) think() time.Duration {
	return time.Duration(g.rng.Int64N(int64(2 * heartbeat)))
}

// offset draws the rotation applied to round-robin member placement.
func (g *generator) offset(daemons int) int { return g.rng.IntN(daemons) }
