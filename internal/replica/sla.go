// Package replica adds per-shard primary/secondary replication on top of
// the coordinated checkpoint protocol: the differential cut is the
// replication unit. At every cut boundary the primary captures the images of
// the blocks the epoch wrote as a Delta and pushes it into each secondary's
// receive buffer; secondaries install deltas asynchronously at their own
// pace (simulated replication lag), each install being an ordinary local
// checkpoint, so a secondary's container always sits exactly at some cut
// boundary of the primary — never in between.
//
// On top of the replica set sits a Pileus-style consistency layer
// (Terry et al., "Consistency-Based Service Level Agreements for Cloud
// Storage", SOSP'13): reads carry an SLA — strong, read-my-writes,
// monotonic, bounded-staleness, or eventual, optionally with a latency
// target — and an optimizer routes each read to the cheapest replica whose
// view satisfies it, falling back to the primary (and flagging the plan
// Unmet) when none qualifies. The optimizer only routes: the service checks
// every routed read against the guarantee its SLA names.
//
// When the primary's node is lost, the most-current secondary is promoted
// from its last installed cut: Promotion implements mpi.Recoverable, so
// the surviving shards and the promoted replica agree on a landing epoch
// with the unmodified coordinated-recovery protocol of §3.6.
package replica

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Level is a consistency guarantee a read demands, ordered from weakest
// to strongest.
type Level int

// The five Pileus consistency levels.
const (
	// Eventual accepts any replica's view.
	Eventual Level = iota
	// Monotonic never reads a view older than one this client has already
	// observed on this shard.
	Monotonic
	// ReadMyWrites reads a view that includes every write this client has
	// made to this shard.
	ReadMyWrites
	// BoundedStaleness reads a view at most Bound committed epochs behind
	// the primary.
	BoundedStaleness
	// Strong reads the primary's live state.
	Strong
)

// String names the level as in SLA specs.
func (l Level) String() string {
	switch l {
	case Eventual:
		return "eventual"
	case Monotonic:
		return "monotonic"
	case ReadMyWrites:
		return "rmw"
	case BoundedStaleness:
		return "bounded"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ErrBadSLA is wrapped by every SLA parse failure, so CLI layers can
// distinguish a malformed -sla flag from operational errors.
var ErrBadSLA = errors.New("replica: bad SLA")

// SLA is one read's service-level agreement: a consistency level (with an
// epoch bound for BoundedStaleness) and an optional latency target the
// chosen replica's simulated RTT must meet.
type SLA struct {
	Level Level
	// Bound is the maximum number of committed epochs a qualifying view
	// may trail the primary (BoundedStaleness only).
	Bound uint64
	// LatencyPS is the read-latency target in simulated picoseconds;
	// zero means no target.
	LatencyPS int64
}

// Name renders the SLA in the spec syntax Parse accepts.
func (s SLA) Name() string {
	name := s.Level.String()
	if s.Level == BoundedStaleness {
		name = fmt.Sprintf("bounded:%d", s.Bound)
	}
	if s.LatencyPS > 0 {
		name += "@" + time.Duration(s.LatencyPS/1000).String()
	}
	return name
}

// Parse resolves an SLA spec: "strong", "rmw" (or "read-my-writes"),
// "monotonic", "bounded:K" (K committed epochs), or "eventual", each with
// an optional "@DUR" latency target (Go duration syntax). All failures
// wrap ErrBadSLA.
func Parse(spec string) (SLA, error) {
	var sla SLA
	body := spec
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		body = spec[:at]
		d, err := time.ParseDuration(spec[at+1:])
		if err != nil || d <= 0 {
			return sla, fmt.Errorf("%w: %q wants a positive latency target after '@'", ErrBadSLA, spec)
		}
		sla.LatencyPS = int64(d) * 1000
	}
	kind, arg, hasArg := strings.Cut(body, ":")
	switch kind {
	case "strong":
		sla.Level = Strong
	case "rmw", "read-my-writes":
		sla.Level = ReadMyWrites
	case "monotonic":
		sla.Level = Monotonic
	case "eventual":
		sla.Level = Eventual
	case "bounded":
		sla.Level = BoundedStaleness
		n, err := strconv.ParseUint(arg, 10, 64)
		if !hasArg || err != nil {
			return sla, fmt.Errorf("%w: %q wants bounded:K with K >= 0 epochs", ErrBadSLA, spec)
		}
		sla.Bound = n
		return sla, nil
	default:
		return sla, fmt.Errorf("%w: unknown level %q (strong, rmw, monotonic, bounded:K, eventual)", ErrBadSLA, spec)
	}
	if hasArg {
		return sla, fmt.Errorf("%w: %q takes no argument", ErrBadSLA, spec)
	}
	return sla, nil
}

// MixName is the spec that assigns the standard five-SLA mix round-robin
// across clients instead of one SLA for all.
const MixName = "mix"

// Mix returns the standard five SLAs, one per consistency level, used for
// the "mix" spec (clients are assigned round-robin in this order).
func Mix() []SLA {
	return []SLA{
		{Level: Strong},
		{Level: ReadMyWrites},
		{Level: Monotonic},
		{Level: BoundedStaleness, Bound: 2},
		{Level: Eventual},
	}
}

// ParseSet resolves a -sla flag: MixName yields the standard mix, any
// other spec yields a single-element set all clients share.
func ParseSet(spec string) ([]SLA, error) {
	if spec == MixName {
		return Mix(), nil
	}
	sla, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return []SLA{sla}, nil
}
