package cliques

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dh"
	"repro/internal/kga"
	"repro/internal/kga/kgatest"
)

var testGroup = dh.Group512

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%02d", i)
	}
	return out
}

func TestFoundSingleton(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	net.Add("alice")
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: []string{"alice"}}, []string{"alice"})
	k := keys["alice"]
	if k.Epoch != 1 {
		t.Fatalf("founding epoch = %d, want 1", k.Epoch)
	}
	m, ok := net.Member("alice").(*Member)
	if !ok {
		t.Fatal("member is not a *cliques.Member")
	}
	if m.Controller() != "alice" {
		t.Fatalf("controller = %s", m.Controller())
	}
	// The singleton key is g^N for the member's share.
	want := testGroup.PowG(m.share, nil, "")
	if want.Cmp(k.Secret) != 0 {
		t.Fatal("singleton key is not g^share")
	}
}

func TestJoinSequence(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(8)
	var lastSecret *big.Int
	for _, name := range ms {
		net.Add(name)
	}
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: ms[:1]}, ms[:1])
	lastSecret = keys[ms[0]].Secret
	for i := 1; i < len(ms); i++ {
		keys = net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms[:i+1], Joined: ms[i : i+1]}, ms[:i+1])
		k := keys[ms[0]]
		if k.Secret.Cmp(lastSecret) == 0 {
			t.Fatalf("join %d did not change the group secret", i)
		}
		lastSecret = k.Secret
		if got := uint64(i + 1); k.Epoch != got {
			t.Fatalf("epoch after join %d = %d, want %d", i, k.Epoch, got)
		}
		// Controller floats to the newest member.
		for _, name := range ms[:i+1] {
			if c := net.Member(name).Controller(); c != ms[i] {
				t.Fatalf("%s sees controller %s, want %s", name, c, ms[i])
			}
		}
	}
}

func TestGroupKeyIsProductOfShares(t *testing.T) {
	// White-box algebra check: the agreed secret equals
	// g^(N_1 N_2 ... N_n) for the committed shares.
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	keys := net.Grow(ms)
	exp := big.NewInt(1)
	for _, name := range ms {
		m := net.Member(name).(*Member)
		exp.Mul(exp, m.share)
		exp.Mod(exp, testGroup.Q)
	}
	want := testGroup.PowG(exp, nil, "")
	if want.Cmp(keys[ms[0]].Secret) != 0 {
		t.Fatal("group secret != g^(product of shares)")
	}
}

// TestMergeRefreshesOldSecret pins the merge controller's refreshed value:
// the merged group's secret is the old secret raised to the controller's
// refresh factor f and to every merging member's share, with f =
// newShare·oldShare⁻¹ mod q. A controller that refreshes a base without its
// own share still reaches agreement on a consistent key, so only this
// algebra catches it.
func TestMergeRefreshesOldSecret(t *testing.T) {
	var prevKey *big.Int
	prevShare := make(map[string]*big.Int)
	merges := 0
	replayRekeyScenarios(t, func(net *kgatest.Net, ev kga.Event) {
		member := func(name string) *Member { return net.Member(name).(*Member) }
		if ev.Type == kga.EvMerge {
			merges++
			ctrl := member(ev.Members[len(ev.Members)-len(ev.Joined)-1])
			e := new(big.Int).ModInverse(prevShare[ctrl.name], testGroup.Q)
			e.Mul(e, ctrl.share)
			for _, name := range ev.Joined {
				e.Mul(e, member(name).share)
			}
			e.Mod(e, testGroup.Q)
			if new(big.Int).Exp(prevKey, e, testGroup.P).Cmp(ctrl.key.Secret) != 0 {
				t.Errorf("merge of %v into %v: secret is not K_old^(f·merged shares)", ev.Joined, ev.Members)
			}
		}
		prevKey = member(ev.Members[0]).key.Secret
		for _, name := range ev.Members {
			prevShare[name] = member(name).share
		}
	})
	if merges == 0 {
		t.Fatal("no merge in the rekey scenarios")
	}
}

func TestEnginesDrawShortShares(t *testing.T) {
	// Every exponent the engine draws goes through dh.NewShare, so the
	// joiner's share and every long-term key are at most 256 bits; the
	// controller's refreshed share, share·f mod q, is full length, and the key
	// is still g^(product of shares).
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	net.Grow(ms[:4])
	net.Add(ms[4])
	keys := net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[4:]}, ms)
	if got := net.Member(ms[4]).(*Member).share.BitLen(); got > 256 {
		t.Fatalf("joiner's share has %d bits, want <= 256", got)
	}
	exp := big.NewInt(1)
	for _, name := range ms {
		m := net.Member(name).(*Member)
		if got := m.x.BitLen(); got > 256 {
			t.Fatalf("%s: long-term key has %d bits, want <= 256", name, got)
		}
		exp.Mul(exp, m.share)
		exp.Mod(exp, testGroup.Q)
	}
	if want := testGroup.PowG(exp, nil, ""); want.Cmp(keys[ms[0]].Secret) != 0 {
		t.Fatal("group secret != g^(product of shares)")
	}
}

func TestLeave(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(6)
	oldKeys := net.Grow(ms)
	// m02 (a non-controller, non-oldest member) leaves.
	survivors := slices.Concat(ms[:2], ms[3:])
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: []string{ms[2]}}, survivors)
	if keys[ms[0]].Secret.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("leave did not change the group secret")
	}
	for _, name := range survivors {
		if c := net.Member(name).Controller(); c != ms[5] {
			t.Fatalf("%s sees controller %s, want %s", name, c, ms[5])
		}
	}
}

func TestControllerLeave(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	oldKeys := net.Grow(ms)
	// The controller (newest member) leaves; the next-newest takes over.
	survivors := ms[:4]
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: ms[4:5]}, survivors)
	if keys[ms[0]].Secret.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("controller leave did not change the group secret")
	}
	for _, name := range survivors {
		if c := net.Member(name).Controller(); c != ms[3] {
			t.Fatalf("%s sees controller %s, want %s", name, c, ms[3])
		}
	}
}

func TestMassLeave(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(7)
	net.Grow(ms)
	// A partition takes out three members at once, including the
	// controller (Table 1: Partition maps to Leave).
	survivors := []string{ms[0], ms[2], ms[5]}
	left := []string{ms[1], ms[3], ms[4], ms[6]}
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: left}, survivors)
	net.AssertAgreement(keys, survivors)
}

func TestLeaveToSingleton(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms)
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms[:1], Left: ms[1:]}, ms[:1])
	if keys[ms[0]] == nil {
		t.Fatal("no key after shrinking to singleton")
	}
}

func TestRefresh(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	oldKeys := net.Grow(ms)
	keys := net.MustRun(kga.Event{Type: kga.EvRefresh, Members: ms}, ms)
	if keys[ms[0]].Secret.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("refresh did not change the group secret")
	}
	if got, want := keys[ms[0]].Epoch, oldKeys[ms[0]].Epoch+1; got != want {
		t.Fatalf("epoch after refresh = %d, want %d", got, want)
	}
}

func TestMerge(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		k := k
		t.Run(fmt.Sprintf("merge%d", k), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			base := names(4)
			net.Grow(base)
			var merged []string
			for i := 0; i < k; i++ {
				name := fmt.Sprintf("new%02d", i)
				merged = append(merged, name)
				net.Add(name)
			}
			all := slices.Concat(base, merged)
			keys := net.MustRun(kga.Event{Type: kga.EvMerge, Members: all, Joined: merged}, all)
			// The last merging member becomes the controller.
			for _, name := range all {
				if c := net.Member(name).Controller(); c != merged[k-1] {
					t.Fatalf("%s sees controller %s, want %s", name, c, merged[k-1])
				}
			}
			net.AssertAgreement(keys, all)
		})
	}
}

func TestMergeOfTwoEstablishedGroups(t *testing.T) {
	// Two independently keyed components heal a partition: the non-base
	// component's members discard their context and merge.
	net := kgatest.NewNet(t, ProtoName, testGroup)
	a := []string{"a0", "a1", "a2"}
	b := []string{"b0", "b1"}
	net.Grow(a)
	net.Grow(b)
	all := slices.Concat(a, b)
	keys := net.MustRun(kga.Event{Type: kga.EvMerge, Members: all, Joined: b}, all)
	net.AssertAgreement(keys, all)
	for _, name := range all {
		if got := net.Member(name).Members(); !slices.Equal(got, all) {
			t.Fatalf("%s has members %v, want %v", name, got, all)
		}
	}
}

func TestTable2JoinExpCounts(t *testing.T) {
	// Table 2: for a join producing a group of n, the controller performs
	// n+1 exponentiations (n-1 share updates + 1 long-term + 1 session)
	// and the new member 2n-1 (n-1 long-term + n-1 blindings + 1 session).
	for _, n := range []int{2, 3, 5, 10} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			ms := names(n)
			net.Grow(ms[:n-1])
			net.Add(ms[n-1])
			net.ResetCounters()
			net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[n-1:]}, ms)

			ctrl := net.Counters[ms[n-2]] // old controller
			joiner := net.Counters[ms[n-1]]
			if got := ctrl.Total(); got != n+1 {
				t.Errorf("controller total = %d, want n+1 = %d", got, n+1)
			}
			if got := ctrl.Get(dh.OpShareUpdate); got != n-1 {
				t.Errorf("controller share updates = %d, want %d", got, n-1)
			}
			if got := ctrl.Get(dh.OpLongTermKey); got != 1 {
				t.Errorf("controller long-term = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpSessionKey); got != 1 {
				t.Errorf("controller session = %d, want 1", got)
			}
			if got := joiner.Total(); got != 2*n-1 {
				t.Errorf("new member total = %d, want 2n-1 = %d", got, 2*n-1)
			}
			if got := joiner.Get(dh.OpLongTermKey); got != n-1 {
				t.Errorf("new member long-term = %d, want %d", got, n-1)
			}
			if got := joiner.Get(dh.OpKeyEncrypt); got != n-1 {
				t.Errorf("new member blindings = %d, want %d", got, n-1)
			}
		})
	}
}

func TestTable3LeaveExpCounts(t *testing.T) {
	// Table 3: a leave from a group of n costs the acting controller n
	// exponentiations: 1 previous-controller audit + n-2 share updates +
	// 1 session key.
	for _, n := range []int{3, 5, 10} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			ms := names(n)
			net.Grow(ms)
			net.ResetCounters()
			// The newest member (controller) leaves, so the acting
			// controller's previous controller is the leaver — the
			// configuration the table's "remove long term key with
			// previous controller" line describes.
			survivors := ms[:n-1]
			net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: ms[n-1:]}, survivors)
			ctrl := net.Counters[ms[n-2]]
			if got := ctrl.Total(); got != n {
				t.Errorf("controller total = %d, want n = %d", got, n)
			}
			if got := ctrl.Get(dh.OpShareRemove); got != 1 {
				t.Errorf("controller audits = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpShareUpdate); got != n-2 {
				t.Errorf("controller share updates = %d, want %d", got, n-2)
			}
			// Every other survivor pays exactly one session-key
			// exponentiation plus nothing else.
			for _, name := range survivors[:n-2] {
				if got := net.Counters[name].Total(); got != 1 {
					t.Errorf("%s total = %d, want 1", name, got)
				}
			}
		})
	}
}

func TestLeaverCannotComputeNewKey(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	oldKeys := net.Grow(ms)
	leaver := net.Member(ms[2]).(*Member)
	leaverShare := new(big.Int).Set(leaver.share)
	leaverPartials := make(map[string]*big.Int, len(leaver.partials))
	for k, v := range leaver.partials {
		leaverPartials[k] = new(big.Int).Set(v)
	}

	survivors := slices.Concat(ms[:2], ms[3:])
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: []string{ms[2]}}, survivors)
	newKey := keys[ms[0]].Secret

	if newKey.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("key unchanged by leave")
	}
	// Everything the departed member can trivially derive from its state
	// must differ from the new key: its share applied to any cached
	// partial, and the old key itself.
	for name, p := range leaverPartials {
		cand := testGroup.Exp(p, leaverShare, nil, "")
		if cand.Cmp(newKey) == 0 {
			t.Fatalf("leaver derives new key from cached partial of %s", name)
		}
	}
}

func TestJoinerCannotComputeOldKey(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	oldKeys := net.Grow(ms[:3])
	net.Add(ms[3])
	oldSecret := oldKeys[ms[0]].Secret

	// Capture the seed the joiner receives: the refreshed partials must
	// not reveal the old secret.
	var seed *joinSeedBody
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgJoinSeed {
			var b joinSeedBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			seed = &b
		}
		return false
	}
	keys := net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[3:]}, ms)
	if seed == nil {
		t.Fatal("no seed captured")
	}
	if seed.PNew.Cmp(oldSecret) == 0 {
		t.Fatal("seed hands the old group secret to the joiner")
	}
	if keys[ms[3]].Secret.Cmp(oldSecret) == 0 {
		t.Fatal("new key equals old key")
	}
}

func TestTamperedSeedRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	tampered := false
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgJoinSeed && !tampered {
			tampered = true
			var b joinSeedBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			b.PNew = testGroup.PowG(testGroup.MustShare(), nil, "")
			enc, err := encodeBody(&b, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Re-inject the tampered message.
			net.Queue = append(net.Queue, kga.Message{
				Proto: ProtoName, Type: MsgJoinSeed, From: m.From, To: m.To, Body: enc,
			})
			return true
		}
		return false
	}
	_, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms)
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered seed: got %v, want ErrBadMAC", err)
	}
}

func TestTamperedLeaveBcastRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	net.Grow(ms)
	tampered := false
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgLeaveBcast && !tampered {
			tampered = true
			var b leaveBcastBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			b.Entries[ms[0]] = testGroup.PowG(testGroup.MustShare(), nil, "")
			enc, err := encodeBody(&b, nil)
			if err != nil {
				t.Fatal(err)
			}
			net.Queue = append(net.Queue, kga.Message{
				Proto: ProtoName, Type: MsgLeaveBcast, From: m.From, Body: enc,
			})
			return true
		}
		return false
	}
	_, err := net.Run(kga.Event{Type: kga.EvLeave, Members: ms[:3], Left: ms[3:]}, ms[:3])
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered leave broadcast: got %v, want ErrBadMAC", err)
	}
}

func TestResetDuringAgreementThenRecover(t *testing.T) {
	// A cascading event interrupts a join: the seed is lost, all members
	// reset, and a subsequent leave (the cascade outcome) still succeeds.
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	net.Grow(ms[:3])
	net.Add(ms[3])
	net.Drop = func(m kga.Message) bool { return m.Type == MsgJoinSeed }
	keys, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[3:]}, ms)
	if err != nil {
		t.Fatalf("interrupted join errored: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("interrupted join produced keys: %v", keys)
	}
	net.Drop = nil
	for _, name := range ms {
		net.Member(name).Reset()
	}
	// Cascade outcome: the joiner vanished again; survivors re-key.
	final := net.MustRun(kga.Event{Type: kga.EvRefresh, Members: ms[:3]}, ms[:3])
	net.AssertAgreement(final, ms[:3])
}

func TestEventDuringAgreementRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	net.Drop = func(m kga.Message) bool { return true } // swallow everything
	if _, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms); err != nil {
		t.Fatal(err)
	}
	m := net.Member(ms[0])
	if !m.InProgress() {
		t.Fatal("member should have a pending agreement")
	}
	_, err := m.HandleEvent(kga.Event{Type: kga.EvRefresh, Members: ms[:2]})
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("event during agreement: got %v, want ErrBadState", err)
	}
}

func TestStaleEpochBroadcastRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms)

	// Capture a legitimate leave broadcast, then replay it after state
	// has moved on.
	var stale *kga.Message
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgLeaveBcast && stale == nil {
			c := m
			stale = &c
		}
		return false
	}
	net.MustRun(kga.Event{Type: kga.EvRefresh, Members: ms}, ms)
	net.Drop = nil
	if stale == nil {
		t.Fatal("no broadcast captured")
	}

	// Put the victim back into await-leave state at a later epoch.
	victim := net.Member(ms[0])
	if _, err := victim.HandleEvent(kga.Event{Type: kga.EvRefresh, Members: ms}); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.HandleMessage(*stale); !errors.Is(err, ErrBadEpoch) && !errors.Is(err, ErrBadMAC) {
		t.Fatalf("replayed broadcast: got %v, want epoch/MAC rejection", err)
	}
}

func TestDissolve(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(2)
	net.Grow(ms)
	m := net.Member(ms[0])
	m.Dissolve()
	if m.Key() != nil || len(m.Members()) != 0 {
		t.Fatal("dissolve left group context behind")
	}
	// A dissolved member can found a fresh group.
	if _, err := m.HandleEvent(kga.Event{Type: kga.EvFound, Members: ms[:1]}); err != nil {
		t.Fatal(err)
	}
	if m.Key() == nil {
		t.Fatal("no key after re-founding")
	}
}

func TestRandomOperationSequenceProperty(t *testing.T) {
	// Drive a random sequence of joins, leaves, refreshes and merges and
	// check that all current members always agree on the secret and the
	// secret changes on every operation.
	rng := rand.New(rand.NewSource(7))
	net := kgatest.NewNet(t, ProtoName, testGroup)
	current := []string{"seed"}
	net.Add("seed")
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: current}, current)
	prev := keys["seed"].Secret
	nextID := 0

	for step := 0; step < 40; step++ {
		op := rng.Intn(4)
		switch {
		case op == 0 || len(current) == 1: // join
			name := fmt.Sprintf("r%03d", nextID)
			nextID++
			net.Add(name)
			current = append(slices.Clone(current), name)
			keys = net.MustRun(kga.Event{Type: kga.EvJoin, Members: current, Joined: []string{name}}, current)
		case op == 1 && len(current) > 2: // leave of a random member
			idx := rng.Intn(len(current))
			left := current[idx]
			current = slices.Concat(current[:idx], current[idx+1:])
			keys = net.MustRun(kga.Event{Type: kga.EvLeave, Members: current, Left: []string{left}}, current)
		case op == 2: // refresh
			keys = net.MustRun(kga.Event{Type: kga.EvRefresh, Members: current}, current)
		default: // merge of 1-3 fresh members
			k := 1 + rng.Intn(3)
			var merged []string
			for i := 0; i < k; i++ {
				name := fmt.Sprintf("r%03d", nextID)
				nextID++
				net.Add(name)
				merged = append(merged, name)
			}
			current = slices.Concat(current, merged)
			keys = net.MustRun(kga.Event{Type: kga.EvMerge, Members: current, Joined: merged}, current)
		}
		got := keys[current[0]].Secret
		if got.Cmp(prev) == 0 {
			t.Fatalf("step %d: operation did not change the secret", step)
		}
		prev = got
	}
}

func TestProtocolRegistered(t *testing.T) {
	if !slices.Contains(kga.Protocols(), ProtoName) {
		t.Fatalf("%s not in registry %v", ProtoName, kga.Protocols())
	}
	p, err := kga.New(ProtoName, "x", testGroup, kga.DirectoryFunc(func(string) (*big.Int, error) {
		return nil, errors.New("empty")
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Proto() != ProtoName {
		t.Fatalf("Proto() = %s", p.Proto())
	}
}

func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := kgatest.NewNet(b, ProtoName, testGroup)
				ms := names(n)
				net.Grow(ms[:n-1])
				net.Add(ms[n-1])
				b.StartTimer()
				net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[n-1:]}, ms)
			}
		})
	}
}

func BenchmarkLeave(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := kgatest.NewNet(b, ProtoName, testGroup)
				ms := names(n)
				net.Grow(ms)
				b.StartTimer()
				net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms[:n-1], Left: ms[n-1:]}, ms[:n-1])
			}
		})
	}
}

func TestKeyHistoryPairwiseDistinct(t *testing.T) {
	// Key independence requires more than "the key changed": every key in
	// the history must be distinct from every other (no cycles back to an
	// old secret).
	rng := rand.New(rand.NewSource(23))
	net := kgatest.NewNet(t, ProtoName, testGroup)
	current := []string{"seed"}
	net.Add("seed")
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: current}, current)
	history := []*big.Int{keys["seed"].Secret}
	nextID := 0

	for step := 0; step < 25; step++ {
		switch {
		case rng.Intn(2) == 0 || len(current) == 1:
			name := fmt.Sprintf("h%03d", nextID)
			nextID++
			net.Add(name)
			current = append(slices.Clone(current), name)
			keys = net.MustRun(kga.Event{Type: kga.EvJoin, Members: current, Joined: []string{name}}, current)
		default:
			idx := rng.Intn(len(current))
			left := current[idx]
			current = slices.Concat(current[:idx], current[idx+1:])
			keys = net.MustRun(kga.Event{Type: kga.EvLeave, Members: current, Left: []string{left}}, current)
		}
		history = append(history, keys[current[0]].Secret)
	}
	for i := 0; i < len(history); i++ {
		for j := i + 1; j < len(history); j++ {
			if history[i].Cmp(history[j]) == 0 {
				t.Fatalf("keys at steps %d and %d are identical", i, j)
			}
		}
	}
}
