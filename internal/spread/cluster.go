package spread

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/faultnet"
)

// Cluster bundles a set of daemons over a shared in-memory network: the
// testbed equivalent used by tests, examples and the benchmark harness
// (the paper ran three daemons on three machines). Net is the fault
// injector (partitions, crashes, drops, latency) over a fault-free
// transport.MemNetwork; it injects nothing until told to.
type Cluster struct {
	Net     *faultnet.Net
	Daemons []*Daemon
	cfg     Config
}

// NewCluster starts n daemons named d00..d(n-1) on a fresh in-memory
// network and waits until they install a common view.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	net := faultnet.New(transport.NewMemNetwork(), 0)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d%02d", i)
	}
	c := &Cluster{Net: net, cfg: cfg.withDefaults()}
	for _, name := range names {
		d, err := NewDaemon(name, names, net, cfg)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Daemons = append(c.Daemons, d)
	}
	if err := c.WaitStable(10 * time.Second); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// Stop shuts every daemon down.
func (c *Cluster) Stop() {
	for _, d := range c.Daemons {
		d.Stop()
	}
}

// WaitStable blocks until every running daemon reports the same view
// containing every running daemon.
func (c *Cluster) WaitStable(timeout time.Duration) error {
	return c.WaitViews(timeout, c.Daemons)
}

// WaitViews blocks until the listed daemons agree on a view consisting of
// exactly those daemons.
func (c *Cluster) WaitViews(timeout time.Duration, daemons []*Daemon) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.viewsAgree(daemons) {
			return nil
		}
		time.Sleep(c.cfg.Heartbeat)
	}
	if c.viewsAgree(daemons) {
		return nil
	}
	return fmt.Errorf("spread: daemons did not stabilize within %v", timeout)
}

func (c *Cluster) viewsAgree(daemons []*Daemon) bool {
	if len(daemons) == 0 {
		return true
	}
	ref, ok := daemons[0].CurrentView()
	if !ok || len(ref.Members) != len(daemons) {
		return false
	}
	for _, d := range daemons {
		v, ok := d.CurrentView()
		if !ok || v.ID != ref.ID || len(v.Members) != len(ref.Members) {
			return false
		}
		for i := range v.Members {
			if v.Members[i] != ref.Members[i] {
				return false
			}
		}
	}
	return true
}
