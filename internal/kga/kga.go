// Package kga defines the group key agreement abstraction shared by the
// pluggable key-management modules (Cliques and CKD). It is the Go analogue
// of the paper's module interface (Section 5.2): the secure group layer
// drives a Protocol with membership events and protocol messages and
// transmits whatever messages the protocol emits; the protocol announces
// completed group keys.
//
// Protocols are purely computational — they perform no I/O and keep no
// goroutines — which is what makes the paper's "drop-in replacement of key
// agreement protocols" design work: the secure layer needs to know when to
// call a module, never how it works.
package kga

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"repro/internal/dh"
	"repro/internal/obs"
)

// ErrRetry marks protocol errors that mean "the engine is not ready for
// this message yet" rather than "the message is corrupt". The secure layer
// defers such messages and retries them after local progress.
var ErrRetry = errors.New("not ready for message yet")

// EventType classifies the membership events the secure layer maps onto
// key-management operations (Table 1 of the paper).
type EventType int

// Membership event types.
const (
	// EvFound creates a singleton group (the first member).
	EvFound EventType = iota + 1
	// EvJoin adds a single new member.
	EvJoin
	// EvLeave removes one or more members. Voluntary leave, disconnect
	// and partition all map here, per Table 1.
	EvLeave
	// EvMerge adds one or more members at once (network merge).
	EvMerge
	// EvRefresh re-keys the group without a membership change.
	EvRefresh
)

func (t EventType) String() string {
	switch t {
	case EvFound:
		return "found"
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvMerge:
		return "merge"
	case EvRefresh:
		return "refresh"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is a membership change handed to every member of the (new) group.
// All members must receive identical events in the same order; the View
// Synchrony semantics of the group communication layer provide this.
type Event struct {
	Type EventType
	// Members is the full member list after the change, oldest first;
	// the last element is (or becomes) the controller under Cliques.
	Members []string
	// Joined lists members added by this event, in protocol order; they
	// appear at the tail of Members.
	Joined []string
	// Left lists members removed by this event.
	Left []string
}

// Message is a key-agreement protocol message. An empty To means a group
// broadcast; otherwise a member-to-member unicast. The paper sends these as
// FIFO-ordered messages through the group communication system.
type Message struct {
	// Proto names the protocol the message belongs to ("cliques",
	// "ckd"); the secure layer routes on it.
	Proto string
	// Type is a protocol-private message discriminator.
	Type int
	From string
	To   string
	Body []byte
}

// Result carries the outcome of feeding an event or message to a protocol:
// messages to transmit, and the completed group key once the local member
// finishes the agreement.
type Result struct {
	Msgs []Message
	Key  *GroupKey
}

// GroupKey is a completed group secret together with its epoch. The epoch
// increases with every completed agreement and tags encrypted application
// traffic so stale-key messages are detectable.
type GroupKey struct {
	// Secret is the agreed group secret.
	Secret *big.Int
	// Epoch numbers completed agreements, starting at 1.
	Epoch uint64
	// Members lists the members the key covers, oldest first.
	Members []string
}

// Bytes returns the secret as key material for a KDF.
func (k *GroupKey) Bytes() []byte { return k.Secret.Bytes() }

// Controller returns the group controller under this key (the newest
// member for Cliques; the oldest for CKD — by convention the protocol
// stores it as the appropriate end of Members; callers that care use the
// protocol's own accessor).
func (k *GroupKey) Controller() string {
	if len(k.Members) == 0 {
		return ""
	}
	return k.Members[len(k.Members)-1]
}

// Directory resolves a member name to its long-term public key. Member
// certification is out of scope in the paper; the secure layer populates
// the directory from member announcements.
type Directory interface {
	PubKey(name string) (*big.Int, error)
}

// DirectoryFunc adapts a function to the Directory interface.
type DirectoryFunc func(name string) (*big.Int, error)

// PubKey implements Directory.
func (f DirectoryFunc) PubKey(name string) (*big.Int, error) { return f(name) }

// Protocol is one member's key-agreement engine. Implementations are purely
// computational and not safe for concurrent use; the secure layer
// serializes access in its event-handling loop.
type Protocol interface {
	// Proto returns the protocol name ("cliques", "ckd").
	Proto() string
	// Name returns the local member name.
	Name() string
	// PubKey returns the member's long-term public key for directory
	// registration.
	PubKey() *big.Int
	// HandleEvent starts an agreement for a membership change.
	HandleEvent(Event) (Result, error)
	// HandleMessage advances an in-progress agreement.
	HandleMessage(Message) (Result, error)
	// Reset aborts any in-progress agreement, keeping the last committed
	// group context (cascading-event handling, Section 5.4).
	Reset()
	// Dissolve discards all group context.
	Dissolve()
	// Key returns the committed group key, or nil.
	Key() *GroupKey
	// Members returns the committed member list, oldest first.
	Members() []string
	// Controller returns the member currently charged with initiating
	// key adjustments.
	Controller() string
	// InProgress reports whether an agreement is pending.
	InProgress() bool
}

// TraceSetter is optionally implemented by protocol engines that can
// report their internal state-machine transitions to the observability
// layer. The secure layer attaches the callback after construction (via a
// type assertion, so the Factory signature stays protocol-agnostic);
// engines invoke it with a short kind ("state", "op") and free-form
// detail. Engines must tolerate a nil callback.
type TraceSetter interface {
	SetTrace(func(kind, detail string))
}

// Causal is the hook protocol engines stamp their wire bodies through: the
// trace scope, and the template (Comp/Group/View) of the "wire-send" and
// "wire-recv" events that carry each body's happens-before edge.
// wirecodec.KGASendExt and (*wirecodec.Ext).ObserveKGA apply it at the
// engines' encode and decode sites.
type Causal struct {
	Scope *obs.Scope
	Event obs.Event
}

// CausalSetter is optionally implemented by protocol engines whose wire
// bodies carry causal-tracing extensions. The secure layer attaches the
// hook after construction, like TraceSetter. Engines must tolerate a nil
// hook.
type CausalSetter interface {
	SetCausal(*Causal)
}

// Factory builds a Protocol instance for a member. Counter may be nil.
type Factory func(member string, g *dh.Group, dir Directory, counter *dh.Counter) (Protocol, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register installs a protocol factory under name. The secure layer
// chooses among registered protocols per group at run time (Section 5.2).
func Register(name string, f Factory) error {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("kga: protocol %q already registered", name)
	}
	registry[name] = f
	return nil
}

// New instantiates the named protocol.
func New(name, member string, g *dh.Group, dir Directory, counter *dh.Counter) (Protocol, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kga: unknown protocol %q", name)
	}
	return f(member, g, dir, counter)
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
