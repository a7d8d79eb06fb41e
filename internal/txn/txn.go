// Package txn implements the Jini transaction model: lease-bounded
// two-phase-commit transactions coordinated by a Transaction Manager (the
// "Transaction Manager" in the paper's Fig. 2 service list). SORCER's
// Servicer interface is service(Exertion, Transaction): exertions may run
// under a transaction so that tuple-space takes and context writes either
// all happen or none do.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
)

// State is a transaction's lifecycle stage.
type State int

// Transaction lifecycle states.
const (
	Active State = iota
	Voting
	Committed
	Aborted
)

// String renders the state for logs.
func (s State) String() string {
	switch s {
	case Active:
		return "ACTIVE"
	case Voting:
		return "VOTING"
	case Committed:
		return "COMMITTED"
	case Aborted:
		return "ABORTED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Vote is a participant's answer to Prepare.
type Vote int

// Prepare votes.
const (
	// VotePrepared: the participant has durably staged its changes and
	// will commit or abort as told.
	VotePrepared Vote = iota
	// VoteNotChanged: the participant made no changes (read-only) and
	// needs no second phase.
	VoteNotChanged
	// VoteAborted: the participant cannot commit.
	VoteAborted
)

// Participant is a resource manager joined to a transaction.
type Participant interface {
	// Prepare stages the participant's changes for txnID.
	Prepare(txnID uint64) (Vote, error)
	// Commit finalizes previously prepared changes.
	Commit(txnID uint64) error
	// Abort discards changes (prepared or not).
	Abort(txnID uint64) error
}

// Errors returned by transaction operations.
var (
	ErrNotActive   = errors.New("txn: transaction not active")
	ErrUnknownTxn  = errors.New("txn: unknown transaction")
	ErrCommitAbort = errors.New("txn: transaction aborted during commit")
)

// Manager creates and tracks transactions. A transaction whose lease lapses
// is aborted — the crash-safety net for federations that die mid-exertion —
// and so is one whose holder cancels its lease.
type Manager struct {
	clock  clockwork.Clock
	leases *lease.Table

	mu   sync.Mutex
	txns map[uint64]*Transaction
}

// NewManager creates a transaction manager.
func NewManager(clock clockwork.Clock, policy lease.Policy) *Manager {
	m := &Manager{
		clock: clock,
		txns:  make(map[uint64]*Transaction),
	}
	m.leases = lease.NewTable(clock, policy)
	m.leases.OnEnd(m.onLeaseEnd)
	return m
}

// Create starts a transaction under a lease of the requested duration. Keep
// the lease renewed for long-running collaborations.
func (m *Manager) Create(leaseDur time.Duration) (*Transaction, lease.Lease) {
	lse := m.leases.Grant(leaseDur)
	t := &Transaction{id: lse.ID, mgr: m, state: Active}
	m.mu.Lock()
	m.txns[lse.ID] = t
	m.mu.Unlock()
	return t, lse
}

// Get returns a live transaction by id.
func (m *Manager) Get(id uint64) (*Transaction, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.txns[id]
	return t, ok
}

// Active reports the number of transactions not yet settled.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.txns {
		if t.State() == Active {
			n++
		}
	}
	return n
}

// Sweep aborts transactions whose leases lapsed.
func (m *Manager) Sweep() { m.leases.Sweep() }

// onLeaseEnd aborts the transaction whose lease expired or was cancelled.
func (m *Manager) onLeaseEnd(id uint64, _ lease.Reason) error {
	if t, ok := m.Get(id); ok {
		return t.Abort()
	}
	return nil
}

// settle forgets a settled transaction; its lease has nothing to release.
func (m *Manager) settle(id uint64) {
	m.mu.Lock()
	delete(m.txns, id)
	m.mu.Unlock()
	m.leases.Retire(id)
}

// Transaction is a single lease-bounded unit of work.
type Transaction struct {
	id  uint64
	mgr *Manager

	mu           sync.Mutex
	state        State
	participants []Participant
}

// ID returns the transaction identifier.
func (t *Transaction) ID() uint64 { return t.id }

// State returns the current lifecycle state.
func (t *Transaction) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Join enrols a participant. Joining the same participant twice is
// idempotent (crash-retry semantics).
func (t *Transaction) Join(p Participant) error {
	if p == nil {
		return errors.New("txn: nil participant")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return fmt.Errorf("%w: state %s", ErrNotActive, t.state)
	}
	for _, existing := range t.participants {
		if existing == p {
			return nil
		}
	}
	t.participants = append(t.participants, p)
	return nil
}

// Commit runs two-phase commit across the participants: every participant
// is asked to Prepare; if all vote Prepared or NotChanged, the Prepared
// ones are told to Commit; otherwise everything aborts and ErrCommitAbort
// is returned.
func (t *Transaction) Commit() error {
	t.mu.Lock()
	if t.state != Active {
		st := t.state
		t.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrNotActive, st)
	}
	t.state = Voting
	parts := append([]Participant{}, t.participants...)
	t.mu.Unlock()

	// Phase 1: collect votes.
	var prepared []Participant
	abort := false
	for _, p := range parts {
		vote, err := p.Prepare(t.id)
		if err != nil || vote == VoteAborted {
			abort = true
			break
		}
		if vote == VotePrepared {
			prepared = append(prepared, p)
		}
	}
	if abort {
		for _, p := range parts {
			_ = p.Abort(t.id)
		}
		t.setState(Aborted)
		t.mgr.settle(t.id)
		return ErrCommitAbort
	}
	// Phase 2: commit the prepared participants.
	var firstErr error
	for _, p := range prepared {
		if err := p.Commit(t.id); err != nil && firstErr == nil {
			// The decision to commit is already durable; a failed
			// Commit is a participant-side delivery problem, surfaced
			// but not reversible.
			firstErr = err
		}
	}
	t.setState(Committed)
	t.mgr.settle(t.id)
	return firstErr
}

// Abort aborts the transaction across all participants. Aborting a settled
// transaction returns ErrNotActive, except that aborting an already
// aborted transaction is a no-op.
func (t *Transaction) Abort() error {
	t.mu.Lock()
	switch t.state {
	case Aborted:
		t.mu.Unlock()
		return nil
	case Committed, Voting:
		st := t.state
		t.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrNotActive, st)
	}
	t.state = Aborted
	parts := append([]Participant{}, t.participants...)
	t.mu.Unlock()

	for _, p := range parts {
		_ = p.Abort(t.id)
	}
	t.mgr.settle(t.id)
	return nil
}

func (t *Transaction) setState(s State) {
	t.mu.Lock()
	t.state = s
	t.mu.Unlock()
}
