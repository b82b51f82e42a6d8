package ckd

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
	if keys["alice"].Epoch != 1 {
		t.Fatalf("founding epoch = %d, want 1", keys["alice"].Epoch)
	}
	if c := net.Member("alice").Controller(); c != "alice" {
		t.Fatalf("controller = %s", c)
	}
}

func TestLongTermKeysAreShort(t *testing.T) {
	// The long-term key comes from dh.NewShare, so it is at most 256
	// bits; a call site drawing its own exponent would be full length.
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	net.Grow(ms[:4])
	net.Add(ms[4])
	net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[4:]}, ms)
	for _, name := range ms {
		if got := net.Member(name).(*Member).x.BitLen(); got > 256 {
			t.Fatalf("%s: long-term key has %d bits, want <= 256", name, got)
		}
	}
}

func TestJoinSequence(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(8)
	for _, name := range ms {
		net.Add(name)
	}
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: ms[:1]}, ms[:1])
	last := keys[ms[0]].Secret
	for i := 1; i < len(ms); i++ {
		keys = net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms[:i+1], Joined: ms[i : i+1]}, ms[:i+1])
		if keys[ms[0]].Secret.Cmp(last) == 0 {
			t.Fatalf("join %d did not change the group secret", i)
		}
		last = keys[ms[0]].Secret
		// The CKD controller is the OLDEST member and never floats on
		// joins.
		for _, name := range ms[:i+1] {
			if c := net.Member(name).Controller(); c != ms[0] {
				t.Fatalf("%s sees controller %s, want %s", name, c, ms[0])
			}
		}
	}
}

func TestLeaveOrdinaryMember(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	oldKeys := net.Grow(ms)
	survivors := slices.Concat(ms[:2], ms[3:])
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: []string{ms[2]}}, survivors)
	if keys[ms[0]].Secret.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("leave did not change the group secret")
	}
	if c := net.Member(ms[0]).Controller(); c != ms[0] {
		t.Fatalf("controller = %s, want %s", c, ms[0])
	}
}

func TestControllerLeave(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(5)
	oldKeys := net.Grow(ms)
	// The controller (oldest) leaves; the next-oldest takes over and
	// must re-handshake with every survivor.
	survivors := ms[1:]
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: ms[:1]}, survivors)
	if keys[ms[1]].Secret.Cmp(oldKeys[ms[1]].Secret) == 0 {
		t.Fatal("controller leave did not change the group secret")
	}
	for _, name := range survivors {
		if c := net.Member(name).Controller(); c != ms[1] {
			t.Fatalf("%s sees controller %s, want %s", name, c, ms[1])
		}
	}
}

func TestMassLeaveIncludingController(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(7)
	net.Grow(ms)
	survivors := []string{ms[2], ms[4], ms[5]}
	left := []string{ms[0], ms[1], ms[3], ms[6]}
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: left}, survivors)
	net.AssertAgreement(keys, survivors)
	if c := net.Member(ms[2]).Controller(); c != ms[2] {
		t.Fatalf("controller = %s, want %s", c, ms[2])
	}
}

func TestLeaveToSingleton(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms)
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: ms[2:], Left: ms[:2]}, ms[2:])
	if keys[ms[2]] == nil {
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
}

func TestMerge(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	base := names(3)
	net.Grow(base)
	merged := []string{"x0", "x1", "x2"}
	for _, name := range merged {
		net.Add(name)
	}
	all := slices.Concat(base, merged)
	keys := net.MustRun(kga.Event{Type: kga.EvMerge, Members: all, Joined: merged}, all)
	net.AssertAgreement(keys, all)
}

func TestTable2JoinExpCounts(t *testing.T) {
	// Table 2, CKD rows: the controller performs n+2 exponentiations and
	// the new member exactly 4, independent of group size.
	for _, n := range []int{2, 3, 5, 10} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			ms := names(n)
			net.Grow(ms[:n-1])
			net.Add(ms[n-1])
			net.ResetCounters()
			net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[n-1:]}, ms)

			ctrl := net.Counters[ms[0]]
			joiner := net.Counters[ms[n-1]]
			if got := ctrl.Total(); got != n+2 {
				t.Errorf("controller total = %d, want n+2 = %d", got, n+2)
			}
			if got := ctrl.Get(dh.OpLongTermKey); got != 1 {
				t.Errorf("controller long-term = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpPairwiseKey); got != 1 {
				t.Errorf("controller pairwise = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpSessionKey); got != 1 {
				t.Errorf("controller session = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpKeyEncrypt); got != n-1 {
				t.Errorf("controller encryptions = %d, want %d", got, n-1)
			}
			if got := joiner.Total(); got != 4 {
				t.Errorf("new member total = %d, want 4", got)
			}
		})
	}
}

func TestTable3LeaveExpCounts(t *testing.T) {
	// Table 3, CKD rows: ordinary leave costs the controller n-1; a
	// controller leave costs the new controller 3n-5.
	for _, n := range []int{3, 5, 10} {
		n := n
		t.Run(fmt.Sprintf("ordinary-n%d", n), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			ms := names(n)
			net.Grow(ms)
			net.ResetCounters()
			survivors := ms[:n-1]
			net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: ms[n-1:]}, survivors)
			ctrl := net.Counters[ms[0]]
			if got := ctrl.Total(); got != n-1 {
				t.Errorf("controller total = %d, want n-1 = %d", got, n-1)
			}
			if got := ctrl.Get(dh.OpSessionKey); got != 1 {
				t.Errorf("controller session = %d, want 1", got)
			}
			if got := ctrl.Get(dh.OpKeyEncrypt); got != n-2 {
				t.Errorf("controller encryptions = %d, want %d", got, n-2)
			}
			for _, name := range survivors[1:] {
				if got := net.Counters[name].Total(); got != 1 {
					t.Errorf("%s total = %d, want 1", name, got)
				}
			}
		})
		t.Run(fmt.Sprintf("controller-n%d", n), func(t *testing.T) {
			net := kgatest.NewNet(t, ProtoName, testGroup)
			ms := names(n)
			net.Grow(ms)
			net.ResetCounters()
			survivors := ms[1:]
			net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: ms[:1]}, survivors)
			ctrl := net.Counters[ms[1]]
			if got := ctrl.Total(); got != 3*n-5 {
				t.Errorf("new controller total = %d, want 3n-5 = %d", got, 3*n-5)
			}
			if got := ctrl.Get(dh.OpLongTermKey); got != n-2 {
				t.Errorf("new controller long-term = %d, want %d", got, n-2)
			}
			if got := ctrl.Get(dh.OpPairwiseKey); got != n-2 {
				t.Errorf("new controller pairwise = %d, want %d", got, n-2)
			}
			if got := ctrl.Get(dh.OpKeyEncrypt); got != n-2 {
				t.Errorf("new controller encryptions = %d, want %d", got, n-2)
			}
			// Every surviving member pays the fixed 4-exponentiation
			// handshake.
			for _, name := range survivors[1:] {
				if got := net.Counters[name].Total(); got != 4 {
					t.Errorf("%s total = %d, want 4", name, got)
				}
			}
		})
	}
}

func TestTable5ProtocolRounds(t *testing.T) {
	// The CKD join is exactly the three rounds of Table 5:
	// hello (controller->joiner), response (joiner->controller),
	// key distribution (controller->group).
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	var rounds []int
	net.Drop = func(m kga.Message) bool {
		rounds = append(rounds, m.Type)
		return false
	}
	net.MustRun(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms)
	want := []int{MsgCtrlHello, MsgMemberResp, MsgKeyDist}
	if !slices.Equal(rounds, want) {
		t.Fatalf("message flow = %v, want %v", rounds, want)
	}
}

func TestLeaverCannotDecryptNewKey(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	oldKeys := net.Grow(ms)
	leaver := net.Member(ms[2]).(*Member)
	leaverE := new(big.Int).Set(leaver.e)

	var dist *keyDistBody
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgKeyDist {
			var b keyDistBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			dist = &b
		}
		return false
	}
	survivors := slices.Concat(ms[:2], ms[3:])
	keys := net.MustRun(kga.Event{Type: kga.EvLeave, Members: survivors, Left: []string{ms[2]}}, survivors)
	newKey := keys[ms[0]].Secret
	if newKey.Cmp(oldKeys[ms[0]].Secret) == 0 {
		t.Fatal("key unchanged by leave")
	}
	if dist == nil {
		t.Fatal("no key distribution captured")
	}
	if _, ok := dist.Entries[ms[2]]; ok {
		t.Fatal("key distribution includes an entry for the departed member")
	}
	// The leaver's stale pairwise exponent must not decrypt any entry to
	// the new key.
	inv, err := testGroup.InverseQ(testGroup.ReduceQ(leaverE))
	if err != nil {
		t.Fatal(err)
	}
	for name, entry := range dist.Entries {
		if testGroup.Exp(entry, inv, nil, "").Cmp(newKey) == 0 {
			t.Fatalf("leaver decrypts %s's entry with its stale key", name)
		}
	}
}

func TestTamperedHelloRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	tampered := false
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgCtrlHello && !tampered {
			tampered = true
			var b helloBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			b.GR1 = testGroup.PowG(testGroup.MustShare(), nil, "")
			enc, err := encodeBody(&b, nil)
			if err != nil {
				t.Fatal(err)
			}
			net.Queue = append(net.Queue, kga.Message{Proto: ProtoName, Type: MsgCtrlHello, From: m.From, To: m.To, Body: enc})
			return true
		}
		return false
	}
	_, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms)
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered hello: got %v, want ErrBadMAC", err)
	}
}

func TestTamperedKeyDistRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(4)
	net.Grow(ms)
	tampered := false
	net.Drop = func(m kga.Message) bool {
		if m.Type == MsgKeyDist && !tampered {
			tampered = true
			var b keyDistBody
			if _, err := decodeBody(m.Body, &b); err != nil {
				t.Fatal(err)
			}
			b.Entries[ms[1]] = testGroup.PowG(testGroup.MustShare(), nil, "")
			enc, err := encodeBody(&b, nil)
			if err != nil {
				t.Fatal(err)
			}
			net.Queue = append(net.Queue, kga.Message{Proto: ProtoName, Type: MsgKeyDist, From: m.From, Body: enc})
			return true
		}
		return false
	}
	_, err := net.Run(kga.Event{Type: kga.EvRefresh, Members: ms}, ms)
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered key dist: got %v, want ErrBadMAC", err)
	}
}

func TestResetDuringRound(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	net.Drop = func(m kga.Message) bool { return true }
	if _, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms); err != nil {
		t.Fatal(err)
	}
	net.Drop = nil
	for _, name := range ms {
		net.Member(name).Reset()
	}
	keys := net.MustRun(kga.Event{Type: kga.EvRefresh, Members: ms[:2]}, ms[:2])
	net.AssertAgreement(keys, ms[:2])
}

func TestEventDuringRoundRejected(t *testing.T) {
	net := kgatest.NewNet(t, ProtoName, testGroup)
	ms := names(3)
	net.Grow(ms[:2])
	net.Add(ms[2])
	net.Drop = func(m kga.Message) bool { return true }
	if _, err := net.Run(kga.Event{Type: kga.EvJoin, Members: ms, Joined: ms[2:]}, ms); err != nil {
		t.Fatal(err)
	}
	_, err := net.Member(ms[0]).HandleEvent(kga.Event{Type: kga.EvRefresh, Members: ms[:2]})
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("event during round: got %v, want ErrBadState", err)
	}
}

func TestRandomOperationSequenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := kgatest.NewNet(t, ProtoName, testGroup)
	current := []string{"seed"}
	net.Add("seed")
	keys := net.MustRun(kga.Event{Type: kga.EvFound, Members: current}, current)
	prev := keys["seed"].Secret
	nextID := 0

	for step := 0; step < 30; step++ {
		op := rng.Intn(3)
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
		default: // refresh
			keys = net.MustRun(kga.Event{Type: kga.EvRefresh, Members: current}, current)
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
