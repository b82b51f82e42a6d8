package dh

import (
	"sync"
	"testing"
)

// TestCounterConcurrentSnapshot hammers a single Counter from many
// goroutines — incrementing, snapshotting, and reading totals concurrently
// — and then checks the exact tally. Run under -race this is the
// regression test for the goroutine-safety the ExpJobs worker pool
// depends on: one Inc per exponentiation must survive arbitrary
// interleaving.
func TestCounterConcurrentSnapshot(t *testing.T) {
	const (
		writers = 8
		perW    = 500
	)
	labels := []string{OpKeyEncrypt, OpShareUpdate, OpSessionKey}
	c := NewCounter()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc(labels[(w+i)%len(labels)])
			}
		}()
	}
	// Concurrent readers: results are transient but must be internally
	// consistent and race-free.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				sum := 0
				for _, v := range snap {
					sum += v
				}
				if sum > c.Total() {
					// Snapshot was taken before Total: the sum can
					// only trail the live total, never exceed it.
					t.Error("snapshot sum exceeds later total")
					return
				}
				_ = c.Get(labels[0])
				_ = c.Labels()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := c.Total(), writers*perW; got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	sum := 0
	for _, l := range labels {
		sum += c.Get(l)
	}
	if sum != writers*perW {
		t.Fatalf("label sum = %d, want %d", sum, writers*perW)
	}
}
