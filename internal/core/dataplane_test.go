package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crypt"
)

func mkFrame(i, size int) []byte {
	f := make([]byte, size)
	copy(f, fmt.Sprintf("frame-%06d", i))
	// Make the trailing sentKeyLen bytes unique per frame.
	copy(f[size-sentKeyLen:], fmt.Sprintf("tag-%012d", i))
	return f
}

func TestSentFramesHitConsumes(t *testing.T) {
	var s sentFrames
	frame := mkFrame(1, 64)
	plain := []byte("the plaintext")
	s.remember(frame, plain)

	pt, ok := s.take(frame)
	if !ok || !bytes.Equal(pt, plain) {
		t.Fatalf("take = %q, %v; want %q, true", pt, ok, plain)
	}
	if _, ok := s.take(frame); ok {
		t.Fatal("second take of the same frame hit; entries must be consumed")
	}
}

func TestSentFramesExactMatchRequired(t *testing.T) {
	var s sentFrames
	frame := mkFrame(1, 64)
	s.remember(frame, []byte("pt"))

	// Same trailing key bytes, different body: must miss (and must not
	// consume the entry, so the real loopback still hits).
	forged := bytes.Clone(frame)
	forged[0] ^= 0xff
	if _, ok := s.take(forged); ok {
		t.Fatal("take matched a frame with a different body")
	}
	if _, ok := s.take(frame); !ok {
		t.Fatal("miss on a forged frame consumed the real entry")
	}
}

func TestSentFramesIgnoresShortAndHugeFrames(t *testing.T) {
	var s sentFrames
	s.remember(make([]byte, sentKeyLen-1), []byte("pt"))
	if n := len(s.m); n != 0 {
		t.Fatalf("short frame cached (%d entries)", n)
	}
	s.remember(make([]byte, sentMaxFrameSize+1), []byte("pt"))
	if n := len(s.m); n != 0 {
		t.Fatalf("oversized frame cached (%d entries)", n)
	}
}

func TestSentFramesEvictionBoundsAndCompaction(t *testing.T) {
	var s sentFrames
	const n = sentMaxEntries + 500
	for i := 0; i < n; i++ {
		s.remember(mkFrame(i, 64), []byte("pt"))
	}
	s.mu.Lock()
	entries, qlen, head, byteSz := len(s.m), len(s.order), s.head, s.bytes
	s.mu.Unlock()
	if entries > sentMaxEntries {
		t.Fatalf("map holds %d entries, cap %d", entries, sentMaxEntries)
	}
	if byteSz > sentMaxBytes {
		t.Fatalf("cache holds %d bytes, cap %d", byteSz, sentMaxBytes)
	}
	// The FIFO order slice must not retain the evicted prefix forever:
	// compaction keeps the live region at least half the backing array.
	if live := qlen - head; qlen > 2*live+64 {
		t.Fatalf("order slice len=%d head=%d: evicted prefix retained", qlen, head)
	}

	// Oldest entries are gone, newest survive.
	if _, ok := s.take(mkFrame(0, 64)); ok {
		t.Fatal("oldest frame survived eviction")
	}
	if _, ok := s.take(mkFrame(n-1, 64)); !ok {
		t.Fatal("newest frame was evicted")
	}
}

func TestSentFramesClear(t *testing.T) {
	var s sentFrames
	frame := mkFrame(1, 64)
	s.remember(frame, []byte("pt"))
	s.clear()
	if _, ok := s.take(frame); ok {
		t.Fatal("take hit after clear")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) != 0 || len(s.order) != 0 || s.head != 0 || s.bytes != 0 {
		t.Fatalf("clear left state: m=%d order=%d head=%d bytes=%d",
			len(s.m), len(s.order), s.head, s.bytes)
	}
}

// TestLoopbackOpenElision proves the sender's own AGREED loopback copy is
// served from the sent-frame cache (entry consumed) rather than decrypted,
// and that the delivered plaintext is intact.
func TestLoopbackOpenElision(t *testing.T) {
	cl := newCluster(t, 2)
	a := connectSecure(t, cl.Daemons[0], "alice")
	b := connectSecure(t, cl.Daemons[1], "bob")
	defer a.Disconnect()
	defer b.Disconnect()

	if err := a.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	if err := b.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
		t.Fatal(err)
	}
	waitSecure(t, a, "g", 2)
	waitSecure(t, b, "g", 2)

	msg := []byte("loopback elision payload")
	if err := a.Multicast("g", msg); err != nil {
		t.Fatal(err)
	}
	a.sent.mu.Lock()
	cached := len(a.sent.m)
	a.sent.mu.Unlock()
	if cached == 0 {
		t.Fatal("Multicast did not remember the sealed frame")
	}

	got := waitMessage(t, a, "g")
	if !bytes.Equal(got.Data, msg) {
		t.Fatalf("loopback delivered %q, want %q", got.Data, msg)
	}
	a.sent.mu.Lock()
	left := len(a.sent.m)
	a.sent.mu.Unlock()
	if left != 0 {
		t.Fatalf("loopback delivery left %d cached frames; elision did not consume the entry", left)
	}

	if gotB := waitMessage(t, b, "g"); !bytes.Equal(gotB.Data, msg) {
		t.Fatalf("peer delivered %q, want %q", gotB.Data, msg)
	}
}

// securePair returns two members of a secured cliques group "g" on two
// daemons.
func securePair(t *testing.T) (a, b *Conn) {
	t.Helper()
	cl := newCluster(t, 2)
	a = connectSecure(t, cl.Daemons[0], "alice")
	b = connectSecure(t, cl.Daemons[1], "bob")
	t.Cleanup(func() { a.Disconnect(); b.Disconnect() })
	for _, c := range []*Conn{a, b} {
		if err := c.Join("g", "cliques", crypt.SuiteBlowfish); err != nil {
			t.Fatal(err)
		}
	}
	waitSecure(t, a, "g", 2)
	waitSecure(t, b, "g", 2)
	return a, b
}

// TestStaleFrameCounted pins core_stale_frames_dropped: a data frame
// stamped with an epoch older than the installed key is dropped and
// counted.
func TestStaleFrameCounted(t *testing.T) {
	a, _ := securePair(t)
	var epoch uint64
	if err := a.do(func() {
		g := a.groups["g"]
		epoch = g.key.Epoch
		if epoch > 0 {
			g.onData("bob", epoch-1, []byte("sealed under the previous key"))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("a two-member group is still at key epoch 0")
	}
	if n := a.Obs().Reg.Counter("core_stale_frames_dropped").Value(); n != 1 {
		t.Fatalf("core_stale_frames_dropped = %d, want 1", n)
	}
}

// TestPendingDiscardCounted pins core_pending_discarded: a frame held for
// an epoch this member has not installed is discarded, and counted, when
// the next view installs first.
func TestPendingDiscardCounted(t *testing.T) {
	a, b := securePair(t)
	if err := a.do(func() {
		g := a.groups["g"]
		g.onData("bob", g.key.Epoch+5, []byte("sealed under a key never installed here"))
	}); err != nil {
		t.Fatal(err)
	}
	discarded := a.Obs().Reg.Counter("core_pending_discarded")
	if n := discarded.Value(); n != 0 {
		t.Fatalf("core_pending_discarded = %d before any view change, want 0", n)
	}
	if err := b.Leave("g"); err != nil {
		t.Fatal(err)
	}
	waitSecure(t, a, "g", 1)
	if n := discarded.Value(); n != 1 {
		t.Fatalf("core_pending_discarded = %d after the view change, want 1", n)
	}
}
