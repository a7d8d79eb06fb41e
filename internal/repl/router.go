package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
)

// Router is the front door to a replicated exertion space: one
// primary/backup Node pair, with every space operation routed to the
// current primary. The Router is also the epoch authority — the single
// place that orders membership changes and mints the fencing epochs the
// data path checks.
//
// When an operation fails for a reason a failover can cure
// (IsFailoverErr), the Router parks it until the configuration changes
// and retries against the new primary, so Spacers and workers see a
// failover as a transient retry instead of an outage. The retry
// preserves the federation's at-least-once envelope contract: an
// operation that was acknowledged is durable on both replicas; one that
// failed over mid-flight is simply re-run.
type Router struct {
	clock clockwork.Clock
	// writeWindow bounds how long a non-blocking operation (Write,
	// WriteBatch, Count) rides out a failover before giving up.
	writeWindow time.Duration

	// coordMu serializes membership changes (failover, reattach,
	// detach), which block on promotion or catch-up; mu only guards the
	// published state and is never held across node calls.
	coordMu sync.Mutex

	mu       sync.Mutex
	gen      uint64 // coordinator generation (fencing token) of the last accepted decision
	epoch    uint64
	primary  *Node
	backup   *Node // the other replica; attached as follower unless solo
	attached bool  // backup is live and receiving ships
	sp       *space.Space
	down     bool
	reconfig chan struct{} // closed (and replaced) on every config change
	closed   chan struct{}
	isClosed bool
}

// RouterOption customizes a Router.
type RouterOption func(*Router)

// WithWriteWindow bounds how long non-blocking operations ride out a
// failover (default 10s).
func WithWriteWindow(d time.Duration) RouterOption {
	return func(r *Router) { r.writeWindow = d }
}

// NewRouter brings up the pair — promoting primary at epoch 1 and
// attaching backup at epoch 2 — and returns the routing front door. A
// nil backup runs the primary unreplicated. The caller owns the nodes'
// lifecycles beyond Close.
func NewRouter(clock clockwork.Clock, primary, backup *Node, opts ...RouterOption) (*Router, error) {
	r := &Router{
		clock:       clock,
		writeWindow: 10 * time.Second,
		primary:     primary,
		backup:      backup,
		reconfig:    make(chan struct{}),
		closed:      make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	sp, err := primary.Promote(1)
	if err != nil {
		return nil, fmt.Errorf("repl: bringing up primary: %w", err)
	}
	r.sp, r.epoch = sp, 1
	if backup != nil {
		sp, err = primary.AttachBackup(2, backup, false)
		if err != nil {
			return nil, fmt.Errorf("repl: attaching backup: %w", err)
		}
		r.sp, r.epoch, r.attached = sp, 2, true
	}
	return r, nil
}

// current returns the space to operate on, the channel that closes on
// the next reconfiguration, and whether the pair is down.
func (r *Router) current() (*space.Space, <-chan struct{}, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sp, r.reconfig, r.down
}

// publishLocked installs a new configuration and wakes parked
// operations. Caller holds r.mu.
func (r *Router) publishLocked() {
	close(r.reconfig)
	r.reconfig = make(chan struct{})
}

// Epoch returns the current fencing epoch.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Gen returns the coordinator generation of the last accepted
// coordination decision (zero until a coordinator adopts the router).
func (r *Router) Gen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Primary returns the node currently serving.
func (r *Router) Primary() *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Backup returns the other replica (attached or not).
func (r *Router) Backup() *Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backup
}

// BackupAttached reports whether the backup is receiving ships (false
// means the primary runs solo).
func (r *Router) BackupAttached() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attached
}

// --- coordination: the epoch authority ---

// requireCoordGen fences a coordinator decision: a decision carrying a
// generation below the recorded one comes from a deposed coordinator and
// bounces with ErrStaleEpoch, exactly like a stale primary's ship does;
// a newer generation is adopted. Decisions are therefore ordered
// lexicographically by (generation, epoch) — the coordination lease's
// fencing token dominates every epoch the holder mints. Must be called
// (and must succeed) before any membership mutation.
func (r *Router) requireCoordGen(gen uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen < r.gen {
		return fmt.Errorf("%w: coordinator generation %d superseded by %d", ErrStaleEpoch, gen, r.gen)
	}
	r.gen = gen
	return nil
}

// AdoptCoordinator installs a new coordination-lease holder's fencing
// token as the generation every subsequent decision must carry. The
// generation is raised under the coordination lock, so a deposed holder
// mid-decision finishes (or bounces) before the takeover lands and every
// later stale-generation decision is refused.
//
//lint:blockok coordinator path: waiting out an in-flight membership change under coordMu is the takeover contract; data-path operations never take coordMu
func (r *Router) AdoptCoordinator(token uint64) error {
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	return r.requireCoordGen(token)
}

// Failover promotes the backup and demotes (fences) the old primary
// from the configuration: the new epoch is minted here and carried by
// the promotion, so the old primary's next ship — if it is alive at all
// — is rejected as stale and fences it. gen is the calling coordinator's
// fencing token; a deposed coordinator's call bounces with ErrStaleEpoch
// before touching the pair. Returns the promoted space.
//
//lint:blockok coordinator path: serializing promotion (log replay, WAL fsync) under coordMu is the failover contract; data-path operations never take coordMu
func (r *Router) Failover(gen uint64) (*space.Space, error) {
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	if err := r.requireCoordGen(gen); err != nil {
		return nil, err
	}
	r.mu.Lock()
	epoch, oldPrimary, backup, attached := r.epoch, r.primary, r.backup, r.attached
	r.mu.Unlock()
	if backup == nil || !attached {
		// Only a backup that was receiving ships at the moment of the
		// failure holds every acknowledged mutation. An unattached spare
		// (parked by an earlier failover or detach) has a stale log:
		// promoting it would resurrect taken entries and drop acks, so
		// the pair parks instead — Restart plus Revive of the last
		// primary is the recovery path.
		r.mu.Lock()
		r.down = true
		r.publishLocked()
		r.mu.Unlock()
		return nil, ErrShardDown
	}
	sp, err := backup.Promote(epoch + 1)
	if err != nil {
		if errors.Is(err, ErrNodeDown) {
			// Double failure: both replicas gone. Park the pair; a Restart
			// plus Reattach/Failover brings it back.
			r.mu.Lock()
			r.down = true
			r.publishLocked()
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrShardDown, err)
		}
		return nil, fmt.Errorf("repl: failing over: %w", err)
	}
	r.mu.Lock()
	r.primary, r.backup = backup, oldPrimary
	r.attached = false
	r.sp = sp
	r.epoch = epoch + 1
	r.down = false
	r.publishLocked()
	r.mu.Unlock()
	return sp, nil
}

// Reattach brings the spare replica (typically a restarted ex-primary)
// back as the live backup under a fresh epoch, fenced by the calling
// coordinator's generation. The attach always full-resyncs — an
// ex-primary's log can hold unacknowledged records past the divergence
// point, which no length check can detect — and mutations retried by
// the router ride out the catch-up window.
//
//lint:blockok coordinator path: serializing the attach catch-up (checkpoint, snapshot ship, tail replay) under coordMu is the failover contract; data-path operations never take coordMu
func (r *Router) Reattach(gen uint64) error {
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	if err := r.requireCoordGen(gen); err != nil {
		return err
	}
	r.mu.Lock()
	epoch, primary, backup := r.epoch, r.primary, r.backup
	r.mu.Unlock()
	if backup == nil {
		return errors.New("repl: no spare replica")
	}
	if backup.Role() == RolePrimary {
		// A fenced or superseded ex-primary: reclaim it first.
		if err := backup.Demote(epoch); err != nil {
			return fmt.Errorf("repl: demoting ex-primary: %w", err)
		}
	}
	sp, err := primary.AttachBackup(epoch+1, backup, true)
	if sp != nil {
		// A suspended primary re-recovered: publish the fresh space (and
		// epoch) even if the catch-up itself failed, so clients rebind.
		r.mu.Lock()
		r.sp = sp
		r.epoch = epoch + 1
		r.attached = err == nil
		r.publishLocked()
		r.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("repl: reattaching backup: %w", err)
	}
	return nil
}

// Revive re-promotes the current primary replica after a Restart — the
// double-failure recovery path — fenced by the calling coordinator's
// generation. Only the last primary's log is guaranteed to hold every
// acknowledged mutation (the spare was detached from the ack path at the
// failover that made this node primary), so only it may serve again;
// promoting the spare instead could resurrect a pre-failover state and
// lose acks.
//
//lint:blockok coordinator path: serializing re-promotion (log replay, WAL fsync) under coordMu is the failover contract; data-path operations never take coordMu
func (r *Router) Revive(gen uint64) (*space.Space, error) {
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	if err := r.requireCoordGen(gen); err != nil {
		return nil, err
	}
	r.mu.Lock()
	epoch, primary := r.epoch, r.primary
	r.mu.Unlock()
	sp, err := primary.Promote(epoch + 1)
	if err != nil {
		return nil, fmt.Errorf("repl: reviving primary: %w", err)
	}
	r.mu.Lock()
	r.sp = sp
	r.epoch = epoch + 1
	r.attached = false
	r.down = false
	r.publishLocked()
	r.mu.Unlock()
	return sp, nil
}

// Detach drops the backup from the configuration, fenced by the calling
// coordinator's generation: the primary continues solo under a fresh
// epoch (acks locally durable only). Used when the backup is unreachable
// but the primary healthy.
//
//lint:blockok coordinator path: serializing the detach (re-recovery, log replay) under coordMu is the failover contract; data-path operations never take coordMu
func (r *Router) Detach(gen uint64) error {
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	if err := r.requireCoordGen(gen); err != nil {
		return err
	}
	r.mu.Lock()
	epoch, primary := r.epoch, r.primary
	r.mu.Unlock()
	sp, err := primary.DetachBackup(epoch + 1)
	if err != nil {
		return fmt.Errorf("repl: detaching backup: %w", err)
	}
	r.mu.Lock()
	r.sp = sp
	r.epoch = epoch + 1
	r.attached = false
	r.publishLocked()
	r.mu.Unlock()
	return nil
}

// Close shuts down the router: parked operations fail and both nodes
// close in an orderly way.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.isClosed {
		r.mu.Unlock()
		return nil
	}
	r.isClosed = true
	close(r.closed)
	nodes := []*Node{r.primary, r.backup}
	r.mu.Unlock()
	var first error
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- the routed space operations ---

// do runs op against the current primary, retrying across
// reconfigurations within the budget. Blocking operations whose budget
// runs out mid-failover report ErrTimeout — to their callers (pollers,
// await loops with their own retry policies) an outage shorter than
// their patience is indistinguishable from no match.
func (r *Router) do(budget time.Duration, blocking bool, op func(sp *space.Space, remaining time.Duration) error) error {
	deadline := r.clock.Now().Add(budget)
	for {
		sp, reconfig, down := r.current()
		remaining := deadline.Sub(r.clock.Now())
		var err error
		if down {
			err = ErrShardDown
		} else {
			err = op(sp, remaining)
		}
		if err == nil || !IsFailoverErr(err) {
			return err
		}
		remaining = deadline.Sub(r.clock.Now())
		if remaining <= 0 {
			if blocking {
				return space.ErrTimeout
			}
			return err
		}
		wait := r.clock.NewTimer(remaining)
		select {
		case <-reconfig:
			wait.Stop()
		case <-r.closed:
			wait.Stop()
			return space.ErrClosed
		case <-wait.C():
			if blocking {
				return space.ErrTimeout
			}
			return err
		}
	}
}

// Write stores one entry; a nil error means the write is durable on
// both replicas (or the solo primary's log).
func (r *Router) Write(e space.Entry, tx *txn.Transaction, leaseDur time.Duration) (lease.Lease, error) {
	var out lease.Lease
	err := r.do(r.writeWindow, false, func(sp *space.Space, _ time.Duration) error {
		l, werr := sp.Write(e, tx, leaseDur)
		if werr == nil {
			out = l
		}
		return werr
	})
	return out, err
}

// WriteBatch group-commits entries as one replicated journal batch.
func (r *Router) WriteBatch(entries []space.Entry, tx *txn.Transaction, leaseDur time.Duration) ([]lease.Lease, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	var out []lease.Lease
	err := r.do(r.writeWindow, false, func(sp *space.Space, _ time.Duration) error {
		ls, werr := sp.WriteBatch(entries, tx, leaseDur)
		if werr == nil {
			out = ls
		}
		return werr
	})
	return out, err
}

// Read blocks up to timeout for a matching entry without removing it.
func (r *Router) Read(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error) {
	var out space.Entry
	err := r.do(timeout, true, func(sp *space.Space, remaining time.Duration) error {
		e, rerr := sp.Read(tmpl, tx, remaining)
		if rerr == nil {
			out = e
		}
		return rerr
	})
	return out, err
}

// Take blocks up to timeout to remove and return a matching entry.
func (r *Router) Take(tmpl space.Entry, tx *txn.Transaction, timeout time.Duration) (space.Entry, error) {
	var out space.Entry
	err := r.do(timeout, true, func(sp *space.Space, remaining time.Duration) error {
		e, terr := sp.Take(tmpl, tx, remaining)
		if terr == nil {
			out = e
		}
		return terr
	})
	return out, err
}

// TakeAny removes up to max matches, blocking up to timeout for the
// first — the worker poll loop's entry point.
func (r *Router) TakeAny(tmpl space.Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]space.Entry, error) {
	var out []space.Entry
	err := r.do(timeout, true, func(sp *space.Space, remaining time.Duration) error {
		es, terr := sp.TakeAny(tmpl, max, tx, remaining)
		if terr == nil {
			out = es
		}
		return terr
	})
	return out, err
}

// Count reports how many visible entries match the template.
func (r *Router) Count(tmpl space.Entry) int {
	n := 0
	_ = r.do(r.writeWindow, false, func(sp *space.Space, _ time.Duration) error {
		n = sp.Count(tmpl)
		return nil
	})
	return n
}
