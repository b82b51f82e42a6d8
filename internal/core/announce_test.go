package core

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/spread"
)

// TestAnnounceChangedKeyRevalidated covers the announce check's skip: a
// member's long-term key is validated again only when its announce carries
// a key different from the one already validated. An unchanged key is
// accepted; a changed key that is not a group element, or a missing one,
// is rejected with a warning and never completes the announce round, so
// no key agreement is planned from it.
func TestAnnounceChangedKeyRevalidated(t *testing.T) {
	cluster := newCluster(t, 1)
	c := connectSecure(t, cluster.Daemons[0], "a")
	grp := c.dhGroup
	known := grp.PowG(grp.MustShare(), nil, "")

	newCtx := func() *groupCtx {
		g := &groupCtx{
			conn:      c,
			name:      "g",
			protoName: "cliques",
			phase:     phaseAnnouncing,
			view: &spread.ViewEvent{Group: "g", Members: []spread.Member{
				{Name: "x", Daemon: "d"}, {Name: "y", Daemon: "d"},
			}},
			anns:    make(map[string]*announceBody),
			pubkeys: map[string]*big.Int{"y": known},
		}
		dir := kga.DirectoryFunc(func(name string) (*big.Int, error) {
			if pub, ok := g.pubkeys[name]; ok {
				return pub, nil
			}
			return nil, errors.New("no key")
		})
		proto, err := kga.New(g.protoName, c.Name(), grp, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.proto = proto
		return g
	}
	announce := func(g *groupCtx, from string, pub *big.Int) {
		g.onAnnounce(from, &announceBody{Name: from, Pub: pub, Proto: "cliques"})
	}
	expectWarning := func(what string) {
		t.Helper()
		select {
		case ev := <-c.Events():
			w, ok := ev.(Warning)
			if !ok || !errors.Is(w.Err, dh.ErrNotInGroup) {
				t.Fatalf("%s: got event %#v, want a not-in-group warning", what, ev)
			}
		default:
			t.Fatalf("%s: no warning", what)
		}
	}

	// Unchanged key: accepted without a warning.
	g := newCtx()
	announce(g, "y", new(big.Int).Set(known))
	if g.anns["y"] == nil {
		t.Fatal("announce with the unchanged key was rejected")
	}
	select {
	case ev := <-c.Events():
		t.Fatalf("unchanged key raised %#v", ev)
	default:
	}

	// Changed, invalid keys: y's announce would complete the round, so
	// accepting it would start a plan.
	bad := []*big.Int{
		nil,
		big.NewInt(1),
		new(big.Int).Sub(grp.P, big.NewInt(1)), // -1: a non-residue mod a safe prime
		new(big.Int).Add(grp.P, known),
	}
	for i, pub := range bad {
		what := fmt.Sprintf("changed key %d", i)
		g := newCtx()
		g.anns["x"] = &announceBody{Name: "x", Pub: known, Proto: "cliques"}
		announce(g, "y", pub)
		expectWarning(what)
		if g.anns["y"] != nil || g.phase != phaseAnnouncing {
			t.Fatalf("%s: announce accepted (phase %v)", what, g.phase)
		}
		if g.pubkeys["y"] != known {
			t.Fatalf("%s: validated key replaced", what)
		}
	}
}
