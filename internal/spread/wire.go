package spread

import "fmt"

// Daemon wire message kinds.
type msgKind int

const (
	kindHeartbeat msgKind = iota + 1
	kindData
	kindPropose
	kindSync
	kindSyncAck
	kindInstall
	// Link-loss recovery: a receiver that detects a per-sender sequence
	// gap asks the origin to retransmit from its retained buffer.
	kindNack

	kindMax // one past the last kind; sizes per-kind metric tables
)

// kindDetails holds each kind's trace detail string, built once: the wire
// trace hot path stamps one on every frame.
var kindDetails = [kindMax]string{
	kindHeartbeat: "kind=heartbeat",
	kindData:      "kind=data",
	kindPropose:   "kind=propose",
	kindSync:      "kind=sync",
	kindSyncAck:   "kind=syncack",
	kindInstall:   "kind=install",
	kindNack:      "kind=nack",
}

// kindDetail is the trace detail "kind=<name>" of a wire kind.
func kindDetail(k msgKind) string {
	if k <= 0 || k >= kindMax {
		return fmt.Sprintf("kind=kind(%d)", int(k))
	}
	return kindDetails[k]
}

// kindName labels a wire kind for metrics and traces.
func kindName(k msgKind) string { return kindDetail(k)[len("kind="):] }

// payloadKind classifies the content of a data message.
type payloadKind int

const (
	payClientData payloadKind = iota + 1
	payGroupJoin
	payGroupLeave
	payGroupState
)

// wireMsg is the single envelope exchanged between daemons.
type wireMsg struct {
	Kind msgKind

	HB      *hbMsg
	Data    *dataMsg
	Prop    *proposeMsg
	Sync    *syncMsg
	SyncAck *syncAckMsg
	Install *installMsg
	Nack    *nackMsg
}

// hbMsg is a heartbeat: it advertises liveness, advances the Lamport
// horizon for agreed delivery, and carries the stability horizon used to
// garbage-collect retained messages.
type hbMsg struct {
	View   ViewID
	LTS    uint64
	Stable uint64 // all messages with LTS <= Stable have been delivered here
	// Seq is the sender's last originated per-view sequence number. A
	// receiver holding less detects that the link lost messages and asks
	// for retransmission; the Lamport horizon must not advance past the
	// gap, or agreed delivery at this daemon diverges from the others.
	Seq uint64
}

// dataMsg carries client traffic or group bookkeeping within a view.
type dataMsg struct {
	View   ViewID
	Sender string // daemon name
	Seq    uint64 // per-sender, per-view, starts at 1
	LTS    uint64 // strictly increasing per sender
	P      payload
}

func (m *dataMsg) key() msgKey { return msgKey{Sender: m.Sender, Seq: m.Seq} }

// ordered reports whether the message must be delivered in the global
// agreed order. All group bookkeeping (joins, leaves, state exchange) is
// agreed-ordered regardless of service level: every daemon must apply
// membership mutations in the same sequence or group state diverges.
// Client data follows its requested service level.
func (m *dataMsg) ordered() bool {
	return m.P.Kind != payClientData || m.P.Service.ordered()
}

type msgKey struct {
	Sender string
	Seq    uint64
}

// payload is the daemon-level content of a data message.
type payload struct {
	Kind payloadKind

	// Client data and group changes.
	Group     string
	Member    string // acting member (sender of data, joiner, leaver)
	DstMember string // unicast destination; empty = multicast
	Service   Service
	Data      []byte

	// Leave bookkeeping: true when the leave is a client disconnect
	// rather than a voluntary group leave.
	Disconnect bool

	// Group state exchange after a daemon view change.
	State []stateEntry
}

// stateEntry describes one local group membership in a GROUP_STATE
// exchange message.
type stateEntry struct {
	Group  string
	Member string
	Daemon string
	Stamp  Stamp
	// PrevView is the daemon view the member's daemon belonged to
	// before the change — its merge component.
	PrevView ViewID
	// ViewSeq is the group's last membership event sequence at the
	// sending daemon, used to keep GroupViewID.Seq monotonic across
	// merges.
	ViewSeq uint64
}

// nackMsg asks the origin daemon to retransmit messages the link dropped:
// the requester is missing Sender's per-view sequence numbers [From, To].
// Transport links are FIFO but not loss-free under fault injection; without
// recovery a dropped agreed message would silently desynchronize one
// daemon's delivery order from the rest of the view.
type nackMsg struct {
	View   ViewID
	Sender string // origin of the missing messages
	From   uint64
	To     uint64
}

// proposeMsg asks the coordinator to include the sender in the next view.
type proposeMsg struct {
	Round uint64
}

// syncMsg is the coordinator's view proposal to the gathered candidates.
type syncMsg struct {
	Round   uint64
	Members []string
}

// syncAckMsg returns a candidate's old-view state for the delivery cut:
// every old-view message it has seen (retained + pending).
type syncAckMsg struct {
	Round   uint64
	OldView ViewID
	Msgs    []dataMsg
}

// installMsg commits the new view and carries the recovered old-view
// message unions keyed by old view, so every member of a shared old view
// delivers the same message set before installing (EVS).
type installMsg struct {
	Round     uint64
	View      View
	Recovered map[ViewID][]dataMsg
}
