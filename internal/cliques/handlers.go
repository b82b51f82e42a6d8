package cliques

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/dh"
	"repro/internal/kga"
)

// HandleMessage feeds a protocol message to the engine and advances the
// in-progress agreement. Messages that do not match the current protocol
// state or target epoch are rejected with ErrBadState / ErrBadEpoch; the
// secure layer treats these as fatal for the current attempt and re-drives
// the agreement (cascading handling).
func (m *Member) HandleMessage(msg kga.Message) (kga.Result, error) {
	switch msg.Type {
	case MsgJoinSeed:
		return m.onJoinSeed(msg)
	case MsgJoinBcast:
		return m.onJoinBcast(msg)
	case MsgLeaveBcast:
		return m.onLeaveBcast(msg)
	case MsgMergeChain:
		return m.onMergeChain(msg)
	case MsgMergeFactorReq:
		return m.onMergeFactorReq(msg)
	case MsgMergeFactorResp:
		return m.onMergeFactorResp(msg)
	case MsgMergeBcast:
		return m.onMergeBcast(msg)
	default:
		return kga.Result{}, fmt.Errorf("%w: unknown message type %d", ErrBadState, msg.Type)
	}
}

// onJoinSeed: the joiner receives the partial set from the old controller
// (JOIN step 2): add our share to every partial, authenticate each entry to
// its owner under the pairwise long-term key, compute our key, broadcast.
func (m *Member) onJoinSeed(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitSeed || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected join seed", ErrBadState)
	}
	var body joinSeedBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.Joiner != m.name {
		return kga.Result{}, fmt.Errorf("%w: seed addressed to %s", ErrBadState, body.Joiner)
	}
	old := m.pend.members[:len(m.pend.members)-1]
	if !slices.Equal(body.OldMembers, old) {
		return kga.Result{}, fmt.Errorf("%w: seed members %v != event members %v", ErrBadState, body.OldMembers, old)
	}
	controller := old[len(old)-1]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: seed from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	for _, name := range old {
		p, ok := body.Partials[name]
		if !ok {
			return kga.Result{}, fmt.Errorf("%w: missing partial for %s", ErrBadState, name)
		}
		if err := m.g.CheckElement(p); err != nil {
			return kga.Result{}, fmt.Errorf("partial for %s: %w", name, err)
		}
	}
	if err := m.g.CheckElement(body.PNew); err != nil {
		return kga.Result{}, fmt.Errorf("seed partial: %w", err)
	}

	// Pairwise key with the controller: verifies the seed and later
	// authenticates the controller's broadcast entry. This is the first
	// of the joiner's n-1 long-term key computations (Table 2).
	kc, err := pairwiseKey(m.g, m.x, m.dir, controller, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !macOK(kc, body.MAC, joinSeedCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	share, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}

	// One batch for the rest of the step, all independent of each other:
	// the new session key (the seed raised to our share, Table 2, 1);
	// "encryption of session key" n-1 times, folding our share into each
	// member's partial; and the remaining n-2 long-term key computations,
	// which authenticate each entry to its owner. The controller's
	// pairwise key was derived above to verify the seed first.
	jobs := make([]dh.Job, 0, 2*len(old))
	jobs = append(jobs, dh.Job{Base: body.PNew, Exp: share, Label: dh.OpSessionKey})
	for _, name := range old {
		jobs = append(jobs, dh.Job{Base: body.Partials[name], Exp: share, Label: dh.OpKeyEncrypt})
	}
	for _, name := range old[:len(old)-1] { // every old member but the controller
		pub, err := peerPub(m.g, m.dir, name)
		if err != nil {
			return kga.Result{}, err
		}
		jobs = append(jobs, dh.Job{Base: pub, Exp: m.x, Label: dh.OpLongTermKey})
	}
	vals := m.g.ExpJobs(jobs, m.counter)
	secret := vals[0]
	entries := make(map[string]*big.Int, len(old)+1)
	macs := make(map[string][]byte, len(old))
	for i, name := range old {
		entries[name] = vals[1+i]
		k := kc
		if name != controller {
			k = vals[1+len(old)+i].Bytes()
		}
		macs[name] = macTag(k, entryCanon(m.name, name, entries[name], body.TargetEpoch))
	}
	// Our own partial is the seed value (it excludes our share).
	entries[m.name] = body.PNew

	bcast := joinBcastBody{
		Members:     slices.Clone(m.pend.members),
		Entries:     entries,
		EntryMACs:   macs,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
	}
	enc, err := m.encBody(MsgJoinBcast, &bcast)
	if err != nil {
		return kga.Result{}, err
	}

	members := m.pend.members
	// Adopt the base group's epoch numbering.
	m.key = &kga.GroupKey{Secret: secret, Epoch: body.TargetEpoch - 1, Members: nil}
	m.commit(members, share, entries, secret, m.name, nil)
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgJoinBcast, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

// onJoinBcast: an existing member receives the joiner's broadcast (JOIN
// step 3): verify our entry, raise it to our share, commit.
func (m *Member) onJoinBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitJoinBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected join broadcast", ErrBadState)
	}
	var body joinBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: broadcast members mismatch", ErrBadState)
	}
	joiner := m.pend.joiner
	if msg.From != joiner {
		return kga.Result{}, fmt.Errorf("%w: join broadcast from %s, expected %s", ErrBadMAC, msg.From, joiner)
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}

	// One long-term key computation to authenticate our entry as coming
	// from the joiner (the old controller reuses the key it derived when
	// building the seed).
	kj := m.pend.ltJoiner
	if kj == nil {
		var err error
		kj, err = pairwiseKey(m.g, m.x, m.dir, joiner, m.counter, dh.OpLongTermKey)
		if err != nil {
			return kga.Result{}, err
		}
	}
	ownMAC := body.EntryMACs[m.name]
	if !macOK(kj, ownMAC, entryCanon(joiner, m.name, entry, body.TargetEpoch)) {
		return kga.Result{}, ErrBadMAC
	}

	// If we were the old controller we refreshed our share in step 1 and
	// commit the refreshed value now.
	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	secret := m.g.Exp(entry, share, m.counter, dh.OpSessionKey)
	m.commit(body.Members, share, body.Entries, secret, joiner, ownMAC)
	return kga.Result{Key: m.key}, nil
}

// onLeaveBcast: a surviving non-controller member receives the refreshed
// partial set after LEAVE/REFRESH.
func (m *Member) onLeaveBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitLeaveBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected leave broadcast", ErrBadState)
	}
	var body leaveBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: broadcast members mismatch", ErrBadState)
	}
	controller := m.pend.members[len(m.pend.members)-1]
	if msg.From != controller {
		return kga.Result{}, fmt.Errorf("%w: leave broadcast from %s, controller is %s", ErrBadMAC, msg.From, controller)
	}
	if !macOK(groupMACKey(m.key.Secret), body.MAC, leaveCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}
	secret := m.g.Exp(entry, m.share, m.counter, dh.OpSessionKey)
	m.commit(body.Members, m.share, body.Entries, secret, controller, nil)
	return kga.Result{Key: m.key}, nil
}

// onMergeChain: a merging member receives the accumulating partial secret
// (MERGE step 2). Intermediate members fold in their share and forward; the
// last member broadcasts the factor-out request without adding its share.
func (m *Member) onMergeChain(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitChain || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected merge chain message", ErrBadState)
	}
	var body mergeChainBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if !slices.Equal(body.Members, m.pend.members) || !slices.Equal(body.Merged, m.pend.merged) {
		return kga.Result{}, fmt.Errorf("%w: chain membership mismatch", ErrBadState)
	}
	pos := slices.Index(body.Merged, m.name)
	if pos < 0 || body.Pos != pos {
		return kga.Result{}, fmt.Errorf("%w: chain position mismatch", ErrBadState)
	}
	if err := m.g.CheckElement(body.U); err != nil {
		return kga.Result{}, fmt.Errorf("chain value: %w", err)
	}
	// Authenticate the chain hop: the expected sender is the previous
	// merging member, or the old controller for the first hop.
	var expectFrom string
	if pos == 0 {
		old := body.Members[:len(body.Members)-len(body.Merged)]
		expectFrom = old[len(old)-1]
	} else {
		expectFrom = body.Merged[pos-1]
	}
	if msg.From != expectFrom {
		return kga.Result{}, fmt.Errorf("%w: chain hop from %s, expected %s", ErrBadMAC, msg.From, expectFrom)
	}
	kp, err := pairwiseKey(m.g, m.x, m.dir, expectFrom, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !macOK(kp, body.MAC, mergeChainCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	share, err := m.g.NewShare(rand.Reader)
	if err != nil {
		return kga.Result{}, err
	}
	m.pend.newShare = share
	m.pend.targetEpoch = body.TargetEpoch

	if m.name != body.Merged[len(body.Merged)-1] {
		// Intermediate member: fold in our share and forward.
		u := m.g.Exp(body.U, share, m.counter, dh.OpKeyEncrypt)
		next := body.Merged[pos+1]
		kn, err := pairwiseKey(m.g, m.x, m.dir, next, m.counter, dh.OpLongTermKey)
		if err != nil {
			return kga.Result{}, err
		}
		fwd := mergeChainBody{
			Members:     body.Members,
			Merged:      body.Merged,
			Pos:         pos + 1,
			U:           u,
			SenderPub:   m.pub,
			TargetEpoch: body.TargetEpoch,
		}
		fwd.MAC = macTag(kn, mergeChainCanon(&fwd))
		enc, err := m.encBody(MsgMergeChain, &fwd)
		if err != nil {
			return kga.Result{}, err
		}
		m.setState(stAwaitMergeBcast)
		var res kga.Result
		res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeChain, From: m.name, To: next, Body: enc})
		return res, nil
	}

	// Last merging member (MERGE step 3): broadcast the partial secret
	// without adding our share, then collect factored-out responses.
	m.pend.u = body.U
	m.pend.factors = make(map[string]*big.Int)
	m.setState(stCollectFactors)

	req := mergeFactorReqBody{
		Members:     body.Members,
		Merged:      body.Merged,
		U:           body.U,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
		MACs:        make(map[string][]byte, len(body.Members)-1),
	}
	base := mergeFactorReqCanon(&req)
	for _, name := range body.Members {
		if name == m.name {
			continue
		}
		k, err := pairwiseKey(m.g, m.x, m.dir, name, m.counter, dh.OpLongTermKey)
		if err != nil {
			return kga.Result{}, err
		}
		req.MACs[name] = macTag(k, canon(name), base)
	}
	enc, err := m.encBody(MsgMergeFactorReq, &req)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeFactorReq, From: m.name, To: "", Body: enc})
	return res, nil
}

func mergeFactorReqCanon(b *mergeFactorReqBody) []byte {
	return canon("merge-factor-req", b.Members, b.Merged, b.U, b.SenderPub, b.TargetEpoch)
}

// onMergeFactorReq: every member except the last merging one factors its
// share out of the broadcast partial secret and returns the result (MERGE
// step 4).
func (m *Member) onMergeFactorReq(msg kga.Message) (kga.Result, error) {
	if (m.st != stAwaitFactorReq && m.st != stAwaitMergeBcast) || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected factor request", ErrBadState)
	}
	var body mergeFactorReqBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if !slices.Equal(body.Members, m.pend.members) || !slices.Equal(body.Merged, m.pend.merged) {
		return kga.Result{}, fmt.Errorf("%w: factor request membership mismatch", ErrBadState)
	}
	last := body.Merged[len(body.Merged)-1]
	if msg.From != last {
		return kga.Result{}, fmt.Errorf("%w: factor request from %s, expected %s", ErrBadMAC, msg.From, last)
	}
	if m.name == last {
		return kga.Result{}, fmt.Errorf("%w: factor request delivered to its sender", ErrBadState)
	}
	if err := m.g.CheckElement(body.U); err != nil {
		return kga.Result{}, fmt.Errorf("factor base: %w", err)
	}
	kl, err := pairwiseKey(m.g, m.x, m.dir, last, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !macOK(kl, body.MACs[m.name], canon(m.name), mergeFactorReqCanon(&body)) {
		return kga.Result{}, ErrBadMAC
	}

	// Our effective share for the new group: base-group members keep
	// their committed share (the old controller its refreshed one);
	// merging members use the share they generated on the chain.
	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	inv, err := m.g.InverseQ(share)
	if err != nil {
		return kga.Result{}, err
	}
	w := m.g.Exp(body.U, inv, m.counter, dh.OpShareRemove)

	m.pend.targetEpoch = body.TargetEpoch
	m.setState(stAwaitMergeBcast)

	resp := mergeFactorRespBody{
		W:           w,
		SenderPub:   m.pub,
		TargetEpoch: body.TargetEpoch,
	}
	resp.MAC = macTag(kl, mergeFactorRespCanon(m.name, &resp))
	enc, err := m.encBody(MsgMergeFactorResp, &resp)
	if err != nil {
		return kga.Result{}, err
	}
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeFactorResp, From: m.name, To: last, Body: enc})
	return res, nil
}

func mergeFactorRespCanon(from string, b *mergeFactorRespBody) []byte {
	return canon("merge-factor-resp", from, b.W, b.SenderPub, b.TargetEpoch)
}

// onMergeFactorResp: the last merging member collects factored partials;
// when all n-1 have arrived it folds in its share, computes the key, and
// broadcasts the full partial set (MERGE step 5).
func (m *Member) onMergeFactorResp(msg kga.Message) (kga.Result, error) {
	if m.st != stCollectFactors || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected factor response", ErrBadState)
	}
	var body mergeFactorRespBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Contains(m.pend.members, msg.From) || msg.From == m.name {
		return kga.Result{}, fmt.Errorf("%w: factor response from non-member %s", ErrBadState, msg.From)
	}
	if err := m.g.CheckElement(body.W); err != nil {
		return kga.Result{}, fmt.Errorf("factored partial: %w", err)
	}
	kp, err := pairwiseKey(m.g, m.x, m.dir, msg.From, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	if !macOK(kp, body.MAC, mergeFactorRespCanon(msg.From, &body)) {
		return kga.Result{}, ErrBadMAC
	}
	m.pend.factors[msg.From] = body.W
	if len(m.pend.factors) < len(m.pend.members)-1 {
		return kga.Result{}, nil
	}

	// All responses in: one batch builds the final partial set — the new
	// session key, our share folded into each factored partial, and the
	// pairwise long-term keys that authenticate each entry to its owner.
	share := m.pend.newShare
	others := make([]string, 0, len(m.pend.members)-1)
	jobs := make([]dh.Job, 0, 2*len(m.pend.members)-1)
	jobs = append(jobs, dh.Job{Base: m.pend.u, Exp: share, Label: dh.OpSessionKey})
	for _, name := range m.pend.members {
		if name != m.name {
			others = append(others, name)
			jobs = append(jobs, dh.Job{Base: m.pend.factors[name], Exp: share, Label: dh.OpKeyEncrypt})
		}
	}
	for _, name := range others {
		pub, err := peerPub(m.g, m.dir, name)
		if err != nil {
			return kga.Result{}, err
		}
		jobs = append(jobs, dh.Job{Base: pub, Exp: m.x, Label: dh.OpLongTermKey})
	}
	vals := m.g.ExpJobs(jobs, m.counter)
	secret := vals[0]
	entries := make(map[string]*big.Int, len(m.pend.members))
	macs := make(map[string][]byte, len(others))
	for i, name := range others {
		entries[name] = vals[1+i]
		k := vals[1+len(others)+i].Bytes()
		macs[name] = macTag(k, entryCanon(m.name, name, entries[name], m.pend.targetEpoch))
	}
	entries[m.name] = m.pend.u

	bcast := mergeBcastBody{
		Members:     slices.Clone(m.pend.members),
		Entries:     entries,
		EntryMACs:   macs,
		SenderPub:   m.pub,
		TargetEpoch: m.pend.targetEpoch,
	}
	enc, err := m.encBody(MsgMergeBcast, &bcast)
	if err != nil {
		return kga.Result{}, err
	}

	members := m.pend.members
	epoch := m.pend.targetEpoch
	m.key = &kga.GroupKey{Secret: secret, Epoch: epoch - 1}
	m.commit(members, share, entries, secret, m.name, nil)
	var res kga.Result
	res.Msgs = append(res.Msgs, kga.Message{Proto: ProtoName, Type: MsgMergeBcast, From: m.name, To: "", Body: enc})
	res.Key = m.key
	return res, nil
}

// onMergeBcast: every member receives the final partial set and computes
// the new key (MERGE step 6).
func (m *Member) onMergeBcast(msg kga.Message) (kga.Result, error) {
	if m.st != stAwaitMergeBcast || m.pend == nil {
		return kga.Result{}, fmt.Errorf("%w: unexpected merge broadcast", ErrBadState)
	}
	var body mergeBcastBody
	if err := m.decBody(msg, &body); err != nil {
		return kga.Result{}, err
	}
	if body.TargetEpoch != m.pend.targetEpoch {
		return kga.Result{}, ErrBadEpoch
	}
	if !slices.Equal(body.Members, m.pend.members) {
		return kga.Result{}, fmt.Errorf("%w: merge broadcast membership mismatch", ErrBadState)
	}
	last := m.pend.merged[len(m.pend.merged)-1]
	if msg.From != last {
		return kga.Result{}, fmt.Errorf("%w: merge broadcast from %s, expected %s", ErrBadMAC, msg.From, last)
	}
	entry, ok := body.Entries[m.name]
	if !ok {
		return kga.Result{}, fmt.Errorf("%w: no entry for %s", ErrBadState, m.name)
	}
	for name, e := range body.Entries {
		if err := m.g.CheckElement(e); err != nil {
			return kga.Result{}, fmt.Errorf("entry for %s: %w", name, err)
		}
	}
	kl, err := pairwiseKey(m.g, m.x, m.dir, last, m.counter, dh.OpLongTermKey)
	if err != nil {
		return kga.Result{}, err
	}
	ownMAC := body.EntryMACs[m.name]
	if !macOK(kl, ownMAC, entryCanon(last, m.name, entry, body.TargetEpoch)) {
		return kga.Result{}, ErrBadMAC
	}

	share := m.share
	if m.pend.newShare != nil {
		share = m.pend.newShare
	}
	secret := m.g.Exp(entry, share, m.counter, dh.OpSessionKey)
	// Merging members adopt the base group's epoch numbering.
	m.key = &kga.GroupKey{Secret: secret, Epoch: body.TargetEpoch - 1}
	m.commit(body.Members, share, body.Entries, secret, last, ownMAC)
	return kga.Result{Key: m.key}, nil
}
