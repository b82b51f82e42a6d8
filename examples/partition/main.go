// Command partition demonstrates the failure handling that gives the paper
// its title: a command-and-control style group survives a network
// partition, both components re-key and keep operating independently, and
// when the network heals the components merge under a fresh group secret.
// The demo uses the centralized CKD module to also show the controller
// role migrating when the controller is partitioned away.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/securespread"
)

const group = "ops"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := securespread.NewLocalCluster(3)
	if err != nil {
		return err
	}
	defer cluster.Stop()
	daemonNames := make([]string, 3)
	for i, d := range cluster.Daemons {
		daemonNames[i] = d.Name()
	}

	users := []string{"hq", "field1", "field2"}
	sessions := make([]*securespread.Session, len(users))
	for i, u := range users {
		s, err := securespread.Connect(cluster.Daemons[i], u)
		if err != nil {
			return err
		}
		sessions[i] = s
		// Centralized key distribution: "hq" (the oldest member) is the
		// controller.
		if err := s.JoinWith(group, securespread.ProtoCKD, securespread.SuiteAESCTR); err != nil {
			return err
		}
	}
	for _, s := range sessions {
		v, err := waitSecureN(s, 3)
		if err != nil {
			return err
		}
		if s == sessions[0] {
			log.Printf("group up: members=%v controller=%s epoch=%d", v.Members, v.Controller, v.Epoch)
		}
	}

	// The network partitions: hq on one side, the field units on the
	// other. Both components detect the failure, map it to a LEAVE
	// (Table 1), and re-key independently.
	log.Printf("--- partitioning the network: {%s} | {%s, %s}", daemonNames[0], daemonNames[1], daemonNames[2])
	cluster.Net.Partition(daemonNames[:1], daemonNames[1:])

	vhq, err := waitSecureN(sessions[0], 1)
	if err != nil {
		return err
	}
	log.Printf("hq component re-keyed: members=%v epoch=%d", vhq.Members, vhq.Epoch)
	for _, i := range []int{1, 2} {
		v, err := waitSecureN(sessions[i], 2)
		if err != nil {
			return err
		}
		if i == 1 {
			// The controller (hq) was partitioned away: the oldest
			// survivor takes over — the 3n-5 re-key of Table 3.
			log.Printf("field component re-keyed: members=%v new controller=%s epoch=%d",
				v.Members, v.Controller, v.Epoch)
		}
	}

	// Both components keep communicating securely within themselves.
	if err := sessions[1].Multicast(group, []byte("field status: holding position")); err != nil {
		return err
	}
	if m, err := waitMessage(sessions[2]); err != nil {
		return err
	} else {
		log.Printf("%s received intra-component: %q", sessions[2].Name(), m.Data)
	}

	// The network heals: the components merge and agree on a fresh key.
	log.Printf("--- healing the network")
	cluster.Net.Heal()
	for _, s := range sessions {
		v, err := waitSecureN(s, 3)
		if err != nil {
			return err
		}
		if s == sessions[0] {
			log.Printf("merged: members=%v controller=%s epoch=%d fullRekey=%v",
				v.Members, v.Controller, v.Epoch, v.FullRekey)
		}
	}
	if err := sessions[0].Multicast(group, []byte("all units: resume normal operations")); err != nil {
		return err
	}
	for _, i := range []int{1, 2} {
		m, err := waitMessage(sessions[i])
		if err != nil {
			return err
		}
		log.Printf("%s received post-merge: %q", sessions[i].Name(), m.Data)
	}
	return nil
}

func waitSecureN(s *securespread.Session, n int) (securespread.SecureView, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ev, ok := s.Receive(time.Until(deadline))
		if !ok {
			break
		}
		if v, isView := ev.(securespread.SecureView); isView && len(v.Members) == n {
			return v, nil
		}
	}
	return securespread.SecureView{}, fmt.Errorf("%s: no %d-member secure view", s.Name(), n)
}

func waitMessage(s *securespread.Session) (securespread.Message, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ev, ok := s.Receive(time.Until(deadline))
		if !ok {
			break
		}
		if m, isMsg := ev.(securespread.Message); isMsg {
			return m, nil
		}
	}
	return securespread.Message{}, fmt.Errorf("%s: timed out waiting for message", s.Name())
}
