// Package spread implements the group communication substrate of the
// reproduction: a daemon-client architecture modeled on the Spread toolkit
// the paper builds on (Section 3).
//
// Daemons form the heavyweight membership: a coordinator-based view
// agreement protocol with a heartbeat failure detector installs daemon
// views under crash, partition and merge, recovering in-flight messages so
// that daemons sharing an old view deliver the same message set before the
// new view (Extended Virtual Synchrony delivery cuts). Within a view,
// client traffic is sequenced by Lamport timestamps into a total order
// consistent with causality (AGREED service) or delivered per-sender
// (FIFO service).
//
// Client processes form lightweight groups: joins and leaves are single
// agreed-ordered messages, daemon membership changes translate into group
// membership changes (partition, merge, disconnect), and every daemon
// derives identical group views with identical member orderings — the
// property the key-agreement layer depends on.
package spread

import (
	"fmt"
	"time"
)

// Service selects delivery semantics for a client message, mirroring
// Spread's service levels.
type Service int

// Service levels. Unreliable and Reliable are accepted for API parity and
// delivered with FIFO semantics (the in-process and TCP transports are
// already reliable); Causal and Safe are delivered with AGREED semantics
// (a total order consistent with causality satisfies both).
const (
	Unreliable Service = iota + 1
	Reliable
	FIFO
	Causal
	Agreed
	Safe
)

func (s Service) String() string {
	switch s {
	case Unreliable:
		return "unreliable"
	case Reliable:
		return "reliable"
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	case Agreed:
		return "agreed"
	case Safe:
		return "safe"
	default:
		return fmt.Sprintf("service(%d)", int(s))
	}
}

// ordered reports whether the service requires the global agreed order.
func (s Service) ordered() bool { return s >= Causal }

// ViewID identifies a daemon-level membership view.
type ViewID struct {
	Epoch uint64
	Coord string
}

// Less orders view IDs by (epoch, coordinator).
func (v ViewID) Less(o ViewID) bool {
	if v.Epoch != o.Epoch {
		return v.Epoch < o.Epoch
	}
	return v.Coord < o.Coord
}

// IsZero reports an unset view ID.
func (v ViewID) IsZero() bool { return v.Epoch == 0 && v.Coord == "" }

func (v ViewID) String() string { return fmt.Sprintf("%d@%s", v.Epoch, v.Coord) }

// View is a daemon-level membership view.
type View struct {
	ID      ViewID
	Members []string // sorted daemon names
}

// GroupViewID identifies a group-level membership view. Seq increases by
// one with every group membership event and is identical at every daemon
// (group events are agreed-ordered).
type GroupViewID struct {
	DaemonView ViewID
	Seq        uint64
}

func (g GroupViewID) String() string {
	return fmt.Sprintf("%s/%d", g.DaemonView, g.Seq)
}

// Stamp is a member's global join-order stamp: members lists are always
// sorted by stamp, giving the oldest-first order the key agreement layer
// requires. Sub disambiguates members re-stamped together during a merge.
type Stamp struct {
	Epoch uint64
	LTS   uint64
	Sub   uint64
	Name  string
}

// Less orders stamps lexicographically.
func (s Stamp) Less(o Stamp) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch < o.Epoch
	}
	if s.LTS != o.LTS {
		return s.LTS < o.LTS
	}
	if s.Sub != o.Sub {
		return s.Sub < o.Sub
	}
	return s.Name < o.Name
}

// Member describes one group member in a view.
type Member struct {
	// Name is the member's unique name ("user#daemon").
	Name string
	// Daemon hosts the member's client connection.
	Daemon string
	// Stamp is the member's join-order stamp.
	Stamp Stamp
}

// ViewReason classifies a group membership change (the paper's Table 1
// event vocabulary).
type ViewReason int

// Group view reasons.
const (
	// ReasonInitial is the view a member receives upon joining a group.
	ReasonInitial ViewReason = iota + 1
	// ReasonJoin: a single member joined voluntarily.
	ReasonJoin
	// ReasonLeave: members left voluntarily.
	ReasonLeave
	// ReasonDisconnect: members vanished because their client
	// connection died.
	ReasonDisconnect
	// ReasonPartition: members vanished because the daemon overlay
	// partitioned or a daemon crashed.
	ReasonPartition
	// ReasonMerge: members appeared because daemon components merged.
	ReasonMerge
	// ReasonPartitionMerge: members vanished and appeared in the same
	// event (Table 1: "Partition + Merge").
	ReasonPartitionMerge
)

func (r ViewReason) String() string {
	switch r {
	case ReasonInitial:
		return "initial"
	case ReasonJoin:
		return "join"
	case ReasonLeave:
		return "leave"
	case ReasonDisconnect:
		return "disconnect"
	case ReasonPartition:
		return "partition"
	case ReasonMerge:
		return "merge"
	case ReasonPartitionMerge:
		return "partition+merge"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Event is anything delivered to a client: a data message or a group view.
type Event interface{ isEvent() }

// DataEvent is an application message delivered to a group member.
type DataEvent struct {
	Group   string
	Sender  string // member name
	Service Service
	Data    []byte
}

func (DataEvent) isEvent() {}

// ViewEvent announces a group membership change to a member.
type ViewEvent struct {
	Group string
	ID    GroupViewID
	// Members is the full membership, oldest first.
	Members []Member
	// Transitional lists the members carried over from this client's
	// previous view of the group.
	Transitional []string
	// Joined and Left list the change, in members order.
	Joined []string
	Left   []string
	Reason ViewReason
}

func (ViewEvent) isEvent() {}

// MemberNames returns the member names in view order (oldest first).
func (v *ViewEvent) MemberNames() []string {
	out := make([]string, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.Name
	}
	return out
}

// Config tunes a daemon's protocol timers.
type Config struct {
	// Heartbeat is the interval between daemon heartbeats. Zero means
	// the default (20ms).
	Heartbeat time.Duration
	// SuspectAfter is how long a silent daemon stays trusted. Zero
	// means 5x Heartbeat.
	SuspectAfter time.Duration
	// GatherWindow is how long a coordinator collects proposals before
	// proposing a view. Zero means 3x Heartbeat.
	GatherWindow time.Duration
	// InstallTimeout bounds a membership round before it restarts. Zero
	// means 10x Heartbeat.
	InstallTimeout time.Duration
	// ClientBuffer is the per-client event channel depth. Zero means
	// 4096. A client that stops draining its channel for long enough to
	// fill it is forcibly disconnected, like Spread's slow-client
	// handling.
	ClientBuffer int
	// SubmitBuffer is the per-client submit-ring depth: how many data
	// operations a client may have queued toward the daemon loop before
	// Multicast/Unicast block for backpressure. Zero means 1024.
	SubmitBuffer int
}

func (c Config) withDefaults() Config {
	if c.Heartbeat == 0 {
		c.Heartbeat = 20 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 5 * c.Heartbeat
	}
	if c.GatherWindow == 0 {
		c.GatherWindow = 3 * c.Heartbeat
	}
	if c.InstallTimeout == 0 {
		c.InstallTimeout = 10 * c.Heartbeat
	}
	if c.ClientBuffer == 0 {
		c.ClientBuffer = 4096
	}
	if c.SubmitBuffer == 0 {
		c.SubmitBuffer = 1024
	}
	return c
}
