package repl

import (
	"errors"
	"fmt"
	"sync"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// Role is a node's current duty within its pair.
type Role int

// The two roles a node cycles through across failovers.
const (
	// RoleBackup applies shipped batches; every node starts here.
	RoleBackup Role = iota
	// RolePrimary serves a durable tuple space and ships its journal.
	RolePrimary
)

// String names the role for diagnostics.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// Node is one replica of a pair: a WAL plus — while primary — the tuple
// space recovered from it. All methods are safe for concurrent use. The
// coordinator (Router) drives every role change with a strictly
// increasing epoch; data traffic checks that epoch on both ends.
//
// Lock ordering: a space's internal mutex may be held when node methods
// run (the journal is called inside the space's critical section), so
// node code never calls back into a live space while holding n.mu.
type Node struct {
	name    string
	dir     string
	clock   clockwork.Clock
	policy  lease.Policy
	walOpts []wal.Option

	mu        sync.Mutex
	log       *wal.Log
	space     *space.Space // non-nil while serving as primary
	follower  Follower     // non-nil while a backup is attached
	epoch     uint64
	role      Role
	fenced    bool // saw ErrStaleEpoch: superseded, refuse everything
	suspended bool // ship failed: log/memory may diverge, stop serving
	attaching bool // catch-up in flight: mutations blocked
	down      bool // killed or closed

	inj     *faults.Injector
	injSite string
}

// NodeOption customizes a Node.
type NodeOption func(*Node)

// WithWALOptions forwards options to the node's log (and to reopens
// after Restart).
func WithWALOptions(opts ...wal.Option) NodeOption {
	return func(n *Node) { n.walOpts = opts }
}

// NewNode opens (or creates) a replica over the WAL directory dir. The
// node starts as a backup at epoch 0; the coordinator promotes or
// attaches it from there.
func NewNode(name string, clock clockwork.Clock, policy lease.Policy, dir string, opts ...NodeOption) (*Node, error) {
	n := &Node{name: name, dir: dir, clock: clock, policy: policy}
	for _, o := range opts {
		o(n)
	}
	walOpts := append([]wal.Option{wal.WithClock(clock)}, n.walOpts...)
	l, err := wal.Open(dir, walOpts...)
	if err != nil {
		return nil, err
	}
	n.log = l
	n.walOpts = walOpts
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Epoch returns the newest configuration epoch the node has seen.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Log exposes the node's WAL (chaos tests arm fault injectors on it).
// Nil while the node is down.
func (n *Node) Log() *wal.Log {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	return n.log
}

// CurrentSpace returns the space the node is serving, or nil when it is
// not primary.
func (n *Node) CurrentSpace() *space.Space {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.space
}

// IsFenced reports whether the node refused itself after seeing a newer
// epoch.
func (n *Node) IsFenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced
}

// SetFaultInjector arms chaos hooks: the replication endpoints consult
// "<site>"+FaultSiteShip and "<site>"+FaultSiteHeartbeat.
func (n *Node) SetFaultInjector(inj *faults.Injector, site string) {
	n.mu.Lock()
	n.inj = inj
	n.injSite = site
	n.mu.Unlock()
}

// faultHooks snapshots the injector under the lock.
func (n *Node) faultHooks() (*faults.Injector, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inj, n.injSite
}

// --- epoch checks (the fencing invariant's enforcement points) ---

// requireEpochPrimary admits a primary-side mutation: the node must be a
// live, unfenced, unsuspended primary with no attach in flight. Returns
// the epoch to tag outgoing ships with and the follower to ship to.
func (n *Node) requireEpochPrimary() (uint64, Follower, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, nil, ErrNodeDown
	}
	if n.fenced {
		return 0, nil, fmt.Errorf("%w: fenced at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if n.role != RolePrimary {
		return 0, nil, ErrNotPrimary
	}
	if n.suspended {
		return 0, nil, ErrBackupUnavailable
	}
	if n.attaching {
		return 0, nil, fmt.Errorf("%w: backup attach in progress", ErrBackupUnavailable)
	}
	return n.epoch, n.follower, nil
}

// requireEpochCheckpoint admits a checkpoint: like requireEpochPrimary
// but permitted while an attach is in flight (the attach itself
// checkpoints to build the resync snapshot; no client ack rides on it).
func (n *Node) requireEpochCheckpoint() (uint64, Follower, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, nil, ErrNodeDown
	}
	if n.fenced {
		return 0, nil, fmt.Errorf("%w: fenced at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if n.role != RolePrimary {
		return 0, nil, ErrNotPrimary
	}
	if n.suspended {
		return 0, nil, ErrBackupUnavailable
	}
	return n.epoch, n.follower, nil
}

// requireEpochBackupLocked admits replication traffic tagged with epoch:
// stale senders are rejected, newer configurations adopted. Caller holds
// n.mu.
func (n *Node) requireEpochBackupLocked(epoch uint64) error {
	if n.down {
		return ErrNodeDown
	}
	if epoch < n.epoch {
		return fmt.Errorf("%w: shipped epoch %d, node at %d", ErrStaleEpoch, epoch, n.epoch)
	}
	if n.role != RoleBackup {
		// Two primaries cannot coexist under one coordinator; whoever is
		// shipping here is stale by construction.
		return fmt.Errorf("%w: receiving node is primary at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if epoch > n.epoch {
		n.epoch = epoch
	}
	return nil
}

// requireEpochAttaching admits a catch-up ship: the node must still be
// the unfenced primary of exactly the attach epoch.
func (n *Node) requireEpochAttaching(epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if n.fenced {
		return fmt.Errorf("%w: fenced at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if n.role != RolePrimary {
		return ErrNotPrimary
	}
	if n.epoch != epoch {
		return fmt.Errorf("%w: attach epoch %d, node at %d", ErrStaleEpoch, epoch, n.epoch)
	}
	return nil
}

// guard is the space.SetGuard hook: consulted inside the space's
// critical section before any mutation is journaled, so a fenced or
// suspended primary cannot acknowledge anything.
func (n *Node) guard() error {
	_, _, err := n.requireEpochPrimary()
	return err
}

// shipFailed records a failed ship: a stale epoch fences the node
// permanently (it was superseded); anything else suspends it until the
// coordinator detaches or replaces the backup. Either way the mutation
// in flight is not acknowledged.
func (n *Node) shipFailed(err error) error {
	n.mu.Lock()
	if errors.Is(err, ErrStaleEpoch) {
		n.fenced = true
		n.mu.Unlock()
		return fmt.Errorf("repl: shipping to backup: %w", err)
	}
	n.suspended = true
	n.mu.Unlock()
	return fmt.Errorf("%w: %v", ErrBackupUnavailable, err)
}

// --- Follower implementation (the backup half, served in-process) ---

// ShipBatch implements Follower: applies a shipped batch durably at its
// explicit sequences and returns the next expected one. An empty batch
// is a position probe.
func (n *Node) ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error) {
	inj, site := n.faultHooks()
	if err := inj.Inject(site + FaultSiteShip); err != nil {
		return 0, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.requireEpochBackupLocked(epoch); err != nil {
		return 0, err
	}
	return n.log.AppendAt(firstSeq, payloads)
}

// ShipSnapshot implements Follower: replaces the backup's log contents
// with the primary's snapshot — the full-resync path, also used for
// live compaction (an in-sync backup installs an identical snapshot).
func (n *Node) ShipSnapshot(epoch, seq uint64, data []byte) error {
	inj, site := n.faultHooks()
	if err := inj.Inject(site + FaultSiteShip); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.requireEpochBackupLocked(epoch); err != nil {
		return err
	}
	return n.log.InstallSnapshot(seq, data)
}

// Heartbeat implements Follower: a liveness probe under the sender's
// epoch. The coordinator treats repeated failures as node death.
func (n *Node) Heartbeat(epoch uint64) error {
	inj, site := n.faultHooks()
	if err := inj.Inject(site + FaultSiteHeartbeat); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	if epoch < n.epoch {
		return fmt.Errorf("%w: heartbeat epoch %d, node at %d", ErrStaleEpoch, epoch, n.epoch)
	}
	return nil
}

var _ Follower = (*Node)(nil)

// --- coordinator-driven role changes ---

// Promote makes the node the primary at newEpoch: it recovers a
// tuple space from its log (which, for a backup that acknowledged every
// shipped batch, holds every acknowledged mutation) and serves it solo
// until a backup is attached. The epoch must exceed anything the node
// has seen — the coordinator's guarantee that at most one primary per
// epoch exists.
func (n *Node) Promote(newEpoch uint64) (*space.Space, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, ErrNodeDown
	}
	if newEpoch <= n.epoch {
		return nil, fmt.Errorf("%w: promote to epoch %d, node at %d", ErrStaleEpoch, newEpoch, n.epoch)
	}
	if n.role == RolePrimary {
		return nil, errors.New("repl: node is already primary")
	}
	// The lock-order edge Node.mu -> Space.mu taken here (and by the
	// re-recovery paths in AttachBackup/DetachBackup, which drop n.mu
	// first) is safe at the instance level even though the space's journal
	// path takes Node.mu under Space.mu: the Space locked under n.mu is
	// always freshly recovered and unpublished, so no other goroutine can
	// hold its mutex yet. Demote/Kill/Close release n.mu before touching a
	// published space for the same reason.
	//
	//lint:lockorder allow repl.Node.mu->space.Space.mu the space locked under Node.mu is freshly recovered and unpublished; published spaces are only touched after n.mu is released
	j := &shippingJournal{node: n, log: n.log}
	//lint:ignore sensorlint/deepblock widening artifact: Recover only reads the local log; the ship closures the analyzer folds into Replay's callback parameter belong to shipTail and never run during recovery
	sp, err := space.Recover(n.clock, n.policy, j)
	if err != nil {
		return nil, fmt.Errorf("repl: promoting %s: %w", n.name, err)
	}
	sp.SetGuard(n.guard)
	n.space = sp
	n.role = RolePrimary
	n.epoch = newEpoch
	n.follower = nil
	n.fenced = false
	n.suspended = false
	return sp, nil
}

// AttachBackup connects a backup to this primary at newEpoch: the
// backup is brought to the primary's exact log position — a full resync
// (checkpoint, snapshot install, tail replay) when resync is true or
// whenever the fast path cannot prove the backup holds a clean prefix —
// after which every journaled batch ships to it synchronously.
// Mutations are refused (ErrBackupUnavailable) for the duration of the
// catch-up; the Router retries them across it.
//
// A suspended primary (an earlier ship failed, so its memory may lag
// its log) is first re-recovered from its own log; the returned space
// is the one now being served, which the caller must rebind to.
func (n *Node) AttachBackup(newEpoch uint64, f Follower, resync bool) (*space.Space, error) {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	if n.fenced {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: fenced at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if n.role != RolePrimary {
		n.mu.Unlock()
		return nil, ErrNotPrimary
	}
	if n.attaching {
		n.mu.Unlock()
		return nil, errors.New("repl: attach already in progress")
	}
	if newEpoch <= n.epoch {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: attach at epoch %d, node at %d", ErrStaleEpoch, newEpoch, n.epoch)
	}
	n.attaching = true
	n.epoch = newEpoch
	suspended := n.suspended
	sp := n.space
	log := n.log
	n.mu.Unlock()

	var err error
	if suspended {
		// Memory may lag the log (a shipped-but-unacked record): replace
		// the space with a fresh recovery so memory, log and the backup
		// about to copy that log all agree. The re-recovered space serves
		// from here on even if the catch-up below fails — the node is
		// then a coherent solo primary at newEpoch and the coordinator
		// retries the attach later — so the suspension lifts now (the
		// attaching flag still blocks mutations until the attach ends).
		resync = true
		sp.Close()
		sp, err = space.Recover(n.clock, n.policy, &shippingJournal{node: n, log: log})
		if err == nil {
			sp.SetGuard(n.guard)
			n.mu.Lock()
			n.space = sp
			n.suspended = false
			n.mu.Unlock()
		}
	}
	if err == nil {
		err = n.catchUp(newEpoch, f, sp, resync)
	}

	n.mu.Lock()
	n.attaching = false
	if err == nil {
		n.follower = f
	}
	n.mu.Unlock()
	return sp, err
}

// catchUp brings f to this node's exact log position under the attach
// epoch. The fast path re-ships the missing tail when f provably holds
// a clean prefix of this log (a crashed-and-restarted backup that was
// never promoted); everything else — divergence risk, compaction gap,
// probe failure — falls back to snapshot install plus tail.
func (n *Node) catchUp(epoch uint64, f Follower, sp *space.Space, resync bool) error {
	if err := n.requireEpochAttaching(epoch); err != nil {
		return err
	}
	if !resync {
		next, err := f.ShipBatch(epoch, 1, nil) // position probe
		if err == nil && next > n.log.SnapshotSeq() && next <= n.log.NextSeq() {
			return n.shipTail(epoch, f, next)
		}
	}
	if err := sp.Checkpoint(); err != nil {
		return fmt.Errorf("repl: checkpoint for resync: %w", err)
	}
	data, seq, _, ok := n.log.Snapshot()
	if !ok {
		return errors.New("repl: checkpoint produced no snapshot")
	}
	if err := f.ShipSnapshot(epoch, seq, data); err != nil {
		return err
	}
	return n.shipTail(epoch, f, seq+1)
}

// catchUpChunk bounds how many records one catch-up ship carries.
const catchUpChunk = 256

// shipTail streams this node's log records from position from to f.
func (n *Node) shipTail(epoch uint64, f Follower, from uint64) error {
	if err := n.requireEpochAttaching(epoch); err != nil {
		return err
	}
	var batch [][]byte
	var first uint64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		// Re-fence per chunk: a catch-up superseded mid-stream (the pair
		// failed over again) must stop shipping immediately.
		if err := n.requireEpochAttaching(epoch); err != nil {
			return err
		}
		_, err := f.ShipBatch(epoch, first, batch)
		batch = batch[:0]
		return err
	}
	err := n.log.ReplayFrom(from, func(seq uint64, payload []byte) error {
		if len(batch) == 0 {
			first = seq
		}
		batch = append(batch, append([]byte(nil), payload...))
		if len(batch) >= catchUpChunk {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// DetachBackup drops the attached backup at newEpoch: the primary
// continues solo (acks become locally durable only — see the package
// comment on double failure). A suspended primary is re-recovered from
// its log first; the returned space is the one now being served.
func (n *Node) DetachBackup(newEpoch uint64) (*space.Space, error) {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, ErrNodeDown
	}
	if n.fenced {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: fenced at epoch %d", ErrStaleEpoch, n.epoch)
	}
	if n.role != RolePrimary {
		n.mu.Unlock()
		return nil, ErrNotPrimary
	}
	if newEpoch <= n.epoch {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: detach at epoch %d, node at %d", ErrStaleEpoch, newEpoch, n.epoch)
	}
	n.epoch = newEpoch
	n.follower = nil
	suspended := n.suspended
	sp := n.space
	log := n.log
	n.mu.Unlock()
	if !suspended {
		return sp, nil
	}
	sp.Close()
	fresh, err := space.Recover(n.clock, n.policy, &shippingJournal{node: n, log: log})
	if err != nil {
		return nil, fmt.Errorf("repl: re-recovering after detach: %w", err)
	}
	fresh.SetGuard(n.guard)
	n.mu.Lock()
	n.space = fresh
	n.suspended = false
	n.mu.Unlock()
	return fresh, nil
}

// Demote turns an ex-primary back into a backup at newEpoch, closing
// its space. The coordinator uses it to reclaim a fenced or superseded
// primary before reattaching it.
func (n *Node) Demote(newEpoch uint64) error {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return ErrNodeDown
	}
	if newEpoch < n.epoch {
		n.mu.Unlock()
		return fmt.Errorf("%w: demote to epoch %d, node at %d", ErrStaleEpoch, newEpoch, n.epoch)
	}
	sp := n.space
	n.space = nil
	n.follower = nil
	n.role = RoleBackup
	n.epoch = newEpoch
	n.fenced = false
	n.suspended = false
	n.mu.Unlock()
	if sp != nil {
		sp.Close()
	}
	return nil
}

// Kill simulates the node's process dying: the space fails every
// blocked operation, the log closes, and every endpoint returns
// ErrNodeDown until Restart.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	sp := n.space
	n.space = nil
	n.follower = nil
	log := n.log
	n.mu.Unlock()
	if sp != nil {
		sp.Close()
	}
	if log != nil {
		_ = log.Close()
	}
}

// Restart reopens a killed node's log (truncating any torn tail) and
// returns it to backup duty; the coordinator decides whether to promote
// or reattach it.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.down {
		return errors.New("repl: restarting a node that is not down")
	}
	l, err := wal.Open(n.dir, n.walOpts...)
	if err != nil {
		return fmt.Errorf("repl: restarting %s: %w", n.name, err)
	}
	n.log = l
	n.down = false
	n.fenced = false
	n.suspended = false
	n.attaching = false
	n.role = RoleBackup
	n.space = nil
	n.follower = nil
	return nil
}

// Close shuts the node down in an orderly way (flushing its log).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil
	}
	n.down = true
	sp := n.space
	n.space = nil
	n.follower = nil
	log := n.log
	n.mu.Unlock()
	if sp != nil {
		sp.Close()
	}
	if log != nil {
		return log.Close()
	}
	return nil
}
