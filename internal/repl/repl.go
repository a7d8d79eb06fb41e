// Package repl is the primary/backup replication layer for the exertion
// space. A replicated pair is two Nodes, each owning a segmented WAL
// (internal/wal): the primary serves a durable tuple space whose journal
// ships every appended batch to the backup synchronously —
// journal-before-ack becomes *replicated*-journal-before-ack, so an
// acknowledged mutation is durable on both nodes before the caller sees
// nil. On top of the pair sit backup promotion under a fencing epoch, a
// Router that Spacers and workers bind to so a failover looks like a
// transient retry, not an outage, and lease-fenced Coordinator replicas
// that detect a dead primary by heartbeat and drive the promotion.
//
// # Epoch fencing
//
// Every membership change — promotion, backup attach, backup detach — is
// ordered by a single authority (the Router) and carries a strictly
// increasing epoch. Replication traffic is tagged with the sender's
// epoch and a node refuses anything older than what it has seen
// (ErrStaleEpoch). Because a primary acknowledges a mutation only after
// its follower accepted the shipped batch, a superseded primary — say,
// one cut off by a partition while its backup was promoted — cannot
// acknowledge anything: its ships are rejected as stale, it fences
// itself, and every in-flight operation fails without an ack. The guard
// installed into the space (space.SetGuard) enforces the same fence
// before any record is journaled.
//
// # What double failure does and does not guarantee
//
// A single node loss never loses an acknowledged mutation: the survivor
// holds every acked record. After a failover the promoted primary runs
// solo — acks are locally durable only — until the coordinator attaches
// a new backup (which always full-resyncs: snapshot install plus log
// tail). A solo primary that crashes and restarts recovers every ack
// from its own log; only losing the solo primary's disk before a backup
// reattaches loses acks, which is the inherent limit of a two-node pair.
package repl

import (
	"errors"

	"sensorcer/internal/space"
)

// Fault-injection site suffixes consulted by a Node's replication
// endpoints (appended to the base site handed to SetFaultInjector).
const (
	// FaultSiteShip is consulted by ShipBatch/ShipSnapshot on the
	// receiving node: injected errors reject the shipped batch — the
	// in-process stand-in for a partition between primary and backup.
	FaultSiteShip = "/repl/ship"
	// FaultSiteHeartbeat is consulted by Heartbeat on the receiving
	// node: injected errors make the node look dead to the coordinator.
	FaultSiteHeartbeat = "/repl/heartbeat"
)

// Errors returned by the replication layer.
var (
	// ErrStaleEpoch rejects traffic from a superseded configuration: the
	// sender's epoch is older than what the receiver has seen. A primary
	// observing it fences itself — it has been replaced.
	ErrStaleEpoch = errors.New("repl: stale epoch")
	// ErrNotPrimary is returned by mutation paths on a node that is not
	// currently the serving primary.
	ErrNotPrimary = errors.New("repl: node is not the primary")
	// ErrNotBackup is returned by replication endpoints on a node that
	// is not currently a backup.
	ErrNotBackup = errors.New("repl: node is not a backup")
	// ErrNodeDown is returned by every operation on a killed node.
	ErrNodeDown = errors.New("repl: node is down")
	// ErrBackupUnavailable suspends a primary whose ship to its backup
	// failed for a reason other than a stale epoch: the mutation is in
	// the local log but unacknowledged, so the node must not serve
	// further traffic until the coordinator detaches or replaces the
	// backup (which re-recovers the space from the log).
	ErrBackupUnavailable = errors.New("repl: backup unavailable; node suspended")
	// ErrShardDown is returned when the pair has no serviceable replica
	// (double failure with nothing restarted yet).
	ErrShardDown = errors.New("repl: shard has no serviceable replica")
)

// Follower is where a primary ships its journal: the backup half of the
// pair, reachable either in-process (*Node implements Follower) or over
// srpc (remote.ReplicationClient).
type Follower interface {
	// ShipBatch applies payloads at explicit sequences (payloads[0] is
	// firstSeq) under the sender's epoch, durably, and returns the
	// follower's next expected sequence. Idempotent for re-shipped
	// prefixes. An empty batch is a position probe. The payloads are
	// valid for the call only (over srpc they are views of the request
	// frame): a follower that keeps one past its return must copy it.
	ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error)
	// ShipSnapshot installs a snapshot covering seq, replacing the
	// follower's log contents — the full-resync path.
	ShipSnapshot(epoch, seq uint64, data []byte) error
	// Heartbeat probes liveness under the sender's epoch.
	Heartbeat(epoch uint64) error
}

// IsFailoverErr reports whether err is the kind of failure a failover
// (or rebind to the promoted primary) can cure — as opposed to an
// operation-level outcome like a timeout or a validation error. The
// Router retries these against the pair's next configuration.
func IsFailoverErr(err error) bool {
	return errors.Is(err, space.ErrClosed) ||
		errors.Is(err, ErrStaleEpoch) ||
		errors.Is(err, ErrNotPrimary) ||
		errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrBackupUnavailable) ||
		errors.Is(err, ErrShardDown)
}
