package cliques

import (
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
)

// runRekeyScenarios drives one full life of a group — join growth, single
// leave, mass leave taking the controller (partition), merge of the healed
// partition, refresh, and a cascaded join/leave/merge burst — and returns
// the per-step, per-member, per-label exponentiation tallies plus the key
// epoch after each step.
//
// Group secrets are drawn from crypto/rand, so secrets cannot be compared
// across two runs; what the parity test checks instead is (a) every run
// reaches agreement at every step (MustRun asserts all members hold the
// same secret), and (b) the exponentiation accounting is identical whether
// the batch pool runs serially or in parallel. Bit-identical outputs for
// identical inputs are covered by the dh-level batch tests.
func runRekeyScenarios(t *testing.T) ([]map[string]map[string]int, []uint64) {
	t.Helper()
	return replayRekeyScenarios(t, nil)
}

// replayRekeyScenarios is runRekeyScenarios with a hook: after, when set,
// runs after every completed agreement with the event just run.
func replayRekeyScenarios(t *testing.T, after func(net *kgatest.Net, ev kga.Event)) ([]map[string]map[string]int, []uint64) {
	t.Helper()
	net := kgatest.NewNet(t, ProtoName, testGroup)
	var tallies []map[string]map[string]int
	var epochs []uint64

	record := func(parts []string, keys map[string]*kga.GroupKey) {
		tally := make(map[string]map[string]int, len(parts))
		for _, name := range parts {
			tally[name] = net.Counters[name].Snapshot()
		}
		tallies = append(tallies, tally)
		epochs = append(epochs, keys[parts[0]].Epoch)
		net.ResetCounters()
	}
	remove := func(members []string, name string) []string {
		out := slices.Clone(members)
		if i := slices.Index(out, name); i >= 0 {
			out = slices.Delete(out, i, i+1)
		}
		return out
	}

	run := func(ev kga.Event) map[string]*kga.GroupKey {
		keys := net.MustRun(ev, ev.Members)
		if after != nil {
			after(net, ev)
		}
		return keys
	}

	// JOIN: found the group and grow to five members one join at a time.
	current := []string{"a", "b", "c", "d", "e"}
	for _, name := range current {
		net.Add(name)
	}
	keys := run(kga.Event{Type: kga.EvFound, Members: current[:1]})
	for i := 1; i < len(current); i++ {
		keys = run(kga.Event{Type: kga.EvJoin, Members: current[:i+1], Joined: current[i : i+1]})
	}
	record(current, keys)

	// LEAVE: a single member partitions away.
	current = remove(current, "c")
	keys = run(kga.Event{Type: kga.EvLeave, Members: current, Left: []string{"c"}})
	record(current, keys)

	// Mass LEAVE: a partition takes two members at once, including the
	// current controller — the controller-leave path.
	current = remove(remove(current, "d"), "e")
	keys = run(kga.Event{Type: kga.EvLeave, Members: current, Left: []string{"d", "e"}})
	record(current, keys)

	// MERGE: the heal brings two new members in one event.
	for _, name := range []string{"f", "g"} {
		net.Add(name)
	}
	current = append(current, "f", "g")
	keys = run(kga.Event{Type: kga.EvMerge, Members: current, Joined: []string{"f", "g"}})
	record(current, keys)

	// REFRESH: re-key without a membership change.
	keys = run(kga.Event{Type: kga.EvRefresh, Members: current})
	record(current, keys)

	// CASCADED: join, leave of the oldest member, and another merge
	// back-to-back, tallied as one step.
	net.Add("h")
	current = append(current, "h")
	run(kga.Event{Type: kga.EvJoin, Members: current, Joined: []string{"h"}})
	current = remove(current, "a")
	run(kga.Event{Type: kga.EvLeave, Members: current, Left: []string{"a"}})
	net.Add("i")
	current = append(current, "i")
	keys = run(kga.Event{Type: kga.EvMerge, Members: current, Joined: []string{"i"}})
	record(current, keys)

	return tallies, epochs
}

// TestBatchParityAcrossScenarios runs every rekey scenario with the batch
// exponentiation pool forced serial and again with eight workers, and
// requires byte-identical exponentiation accounting (Tables 2-4 by label,
// per member, per step) and identical epoch progression.
func TestBatchParityAcrossScenarios(t *testing.T) {
	prev := dh.SetBatchWorkers(1)
	defer dh.SetBatchWorkers(prev)
	serialTallies, serialEpochs := runRekeyScenarios(t)

	dh.SetBatchWorkers(8)
	parallelTallies, parallelEpochs := runRekeyScenarios(t)

	if !reflect.DeepEqual(serialEpochs, parallelEpochs) {
		t.Fatalf("epoch progression differs: serial %v, parallel %v", serialEpochs, parallelEpochs)
	}
	if len(serialTallies) != len(parallelTallies) {
		t.Fatalf("step count differs: %d vs %d", len(serialTallies), len(parallelTallies))
	}
	for i := range serialTallies {
		if !reflect.DeepEqual(serialTallies[i], parallelTallies[i]) {
			t.Errorf("step %d: exponentiation counts diverge\nserial:   %v\nparallel: %v",
				i, serialTallies[i], parallelTallies[i])
		}
	}
}

// TestSecretIsOwnPartialToShare pins the identity the controllers re-key
// from: after every commit, each member's group secret K equals its own
// partial raised to its share. The join controller derives the joiner's
// seed partial, and a leave or refresh controller its new secret, as
// K_old^f instead of partials[me]^(share·f mod q); the test replays every
// rekey scenario at pool widths 1 and 8 and checks both values against
// the old formulas, with the partials from before the step and the share
// the controller committed (its pending refreshed share).
func TestSecretIsOwnPartialToShare(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			prev := dh.SetBatchWorkers(workers)
			defer dh.SetBatchWorkers(prev)

			// ownBefore holds each member's own partial as of the
			// previous commit.
			ownBefore := make(map[string]*big.Int)
			replayRekeyScenarios(t, func(net *kgatest.Net, ev kga.Event) {
				member := func(name string) *Member { return net.Member(name).(*Member) }
				exp := func(base, e *big.Int) *big.Int { return new(big.Int).Exp(base, e, testGroup.P) }
				n := len(ev.Members)
				switch ev.Type {
				case kga.EvJoin:
					// Every member commits the seed as the joiner's entry.
					ctrl, joiner := member(ev.Members[n-2]), member(ev.Joined[0])
					if exp(ownBefore[ctrl.name], ctrl.share).Cmp(joiner.partials[joiner.name]) != 0 {
						t.Errorf("join of %s: seed partial is not old partials[%s]^newShare", joiner.name, ctrl.name)
					}
				case kga.EvLeave, kga.EvRefresh:
					ctrl := member(ev.Members[n-1])
					if exp(ownBefore[ctrl.name], ctrl.share).Cmp(ctrl.key.Secret) != 0 {
						t.Errorf("%v: controller %s's secret is not partials[me]^newShare", ev.Type, ctrl.name)
					}
				}
				for _, name := range ev.Members {
					m := member(name)
					own := m.partials[name]
					if exp(own, m.share).Cmp(m.key.Secret) != 0 {
						t.Errorf("after %v: %s's secret is not partials[me]^share", ev.Type, name)
					}
					ownBefore[name] = own
				}
			})
		})
	}
}
