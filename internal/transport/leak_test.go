package transport

import (
	"runtime"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and fails the test at cleanup if
// the count has not dropped back to the snapshot within a grace period.
// Register it first thing in a test: cleanups run LIFO, so the check runs
// after the test's own closes. The grace period covers supervisors parked
// in a dial or backoff sleep at close time.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		after := 0
		for time.Now().Before(deadline) {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
	})
}

// memCleanup closes the named mem endpoints at test end so their delivery
// goroutines exit and leakCheck sees a clean count.
func memCleanup(t *testing.T, net *MemNetwork, names ...string) {
	t.Cleanup(func() {
		for _, n := range names {
			net.mu.Lock()
			node := net.nodes[n]
			net.mu.Unlock()
			if node != nil {
				node.Close()
			}
		}
	})
}
