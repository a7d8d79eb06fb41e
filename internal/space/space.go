// Package space implements a JavaSpaces-style tuple space: leased entries
// written, read and taken by template matching, with optional transactional
// visibility via package txn. SORCER's Spacer (pull-mode exertion
// federation) is built on it: a rendezvous peer writes task envelopes into
// the space and worker providers take envelopes matching their signatures —
// exactly the "exertion space" coordination model the paper's SORCER
// substrate provides.
package space

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

// Entry is a tuple: a kind plus named fields. Template matching follows
// JavaSpaces: kinds must be equal and every non-nil template field must
// equal the entry's field; absent/nil template fields are wildcards.
// Fields used in templates must be comparable; payload-only fields may hold
// anything.
type Entry struct {
	Kind   string
	Fields map[string]any
}

// NewEntry builds an entry from alternating key/value pairs.
func NewEntry(kind string, kv ...any) Entry {
	if len(kv)%2 != 0 {
		panic("space.NewEntry: odd number of key/value arguments")
	}
	e := Entry{Kind: kind, Fields: make(map[string]any, len(kv)/2)}
	for i := 0; i < len(kv); i += 2 {
		e.Fields[kv[i].(string)] = kv[i+1]
	}
	return e
}

// Clone returns a copy with its own field map: mutating the original's map
// (adding, removing or reassigning keys) cannot affect the clone, and vice
// versa. The copy is shallow one level down — field values themselves are
// shared, so payload values should be treated as immutable once written.
// The space clones on Write and on every Read/Take, so stored entries never
// alias caller-held maps; recovery rebuilds field maps from the journal, so
// replayed entries cannot alias pre-crash ones either.
func (e Entry) Clone() Entry {
	c := Entry{Kind: e.Kind}
	if e.Fields != nil {
		c.Fields = make(map[string]any, len(e.Fields))
		for k, v := range e.Fields {
			c.Fields[k] = v
		}
	}
	return c
}

// Field returns a field value (nil when absent).
func (e Entry) Field(name string) any { return e.Fields[name] }

// Matches reports whether candidate satisfies template e.
func (e Entry) Matches(candidate Entry) bool {
	if e.Kind != candidate.Kind {
		return false
	}
	for k, want := range e.Fields {
		if want == nil {
			continue // explicit wildcard
		}
		got, ok := candidate.Fields[k]
		if !ok || !equalValue(want, got) {
			return false
		}
	}
	return true
}

// equalValue compares two field values, tolerating non-comparable payloads
// (which never match templates).
func equalValue(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// Forever blocks a Read/Take until a match arrives.
const Forever = time.Duration(1<<62 - 1)

// ErrTimeout is returned when no matching entry arrived in time.
var ErrTimeout = errors.New("space: timed out waiting for matching entry")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("space: closed")

type storedEntry struct {
	id      uint64
	entry   Entry
	leaseID uint64
	// writtenTxn is non-zero while the entry is staged by an uncommitted
	// transaction's write: visible only within that transaction.
	writtenTxn uint64
	// takenTxn is non-zero while the entry is held by an uncommitted
	// transaction's take: invisible to everyone else.
	takenTxn uint64
}

type waiter struct {
	template Entry
	take     bool
	txnID    uint64
	result   chan Entry
}

// Space is an in-process tuple space, safe for concurrent use.
type Space struct {
	id     ids.ServiceID
	clock  clockwork.Clock
	leases *lease.Table

	mu      sync.Mutex
	nextID  uint64
	entries map[uint64]*storedEntry
	byLease map[uint64]uint64 // leaseID -> entryID
	// byKind is the match index (see index.go): per-kind ascending id
	// lists plus a field-value inverted index, kept coherent with entries.
	byKind map[string]*kindIndex
	// waitq holds blocked Read/Take waiters FIFO per template kind, so an
	// arriving entry wakes only the waiters whose template kind it can
	// possibly satisfy.
	waitq  map[string][]*waiter
	txns   map[uint64]*spaceTxnPart
	closed bool

	// journal, when set, is the write-ahead log every mutation is recorded
	// in before it is acknowledged (see durable.go). Nil for volatile
	// spaces. The log's lifecycle belongs to whoever opened it.
	journal Journal
	// guard, when set, is consulted before any mutation is journaled —
	// the replication layer's epoch fence (see SetGuard).
	guard func() error

	// inj, when set, injects faults at sites "<site>/write" and
	// "<site>/take" (chaos testing only; nil in production).
	inj     *faults.Injector
	injSite string
}

// New creates a tuple space whose entry leases follow policy.
func New(clock clockwork.Clock, policy lease.Policy) *Space {
	s := &Space{
		id:      ids.NewServiceID(),
		clock:   clock,
		leases:  lease.NewTable(clock, policy),
		entries: make(map[uint64]*storedEntry),
		byLease: make(map[uint64]uint64),
		byKind:  make(map[string]*kindIndex),
		waitq:   make(map[string][]*waiter),
		txns:    make(map[uint64]*spaceTxnPart),
	}
	s.leases.OnExpire(s.onLeaseExpired)
	return s
}

// ID returns the space's service identity.
func (s *Space) ID() ids.ServiceID { return s.id }

// Fault-injection site suffixes appended to the base site handed to
// SetFaultInjector. They are the space's two chaos hook points.
const (
	// FaultSiteWrite is consulted by Write: injected errors fail the
	// write, drops lose the entry silently — the caller believes it was
	// stored.
	FaultSiteWrite = "/write"
	// FaultSiteTake is consulted by Read and Take: injected errors fail
	// the operation before matching.
	FaultSiteTake = "/take"
)

// SetFaultInjector arms chaos hooks: Write consults site
// "<site>"+FaultSiteWrite and Read/Take consult "<site>"+FaultSiteTake.
func (s *Space) SetFaultInjector(inj *faults.Injector, site string) {
	s.mu.Lock()
	s.inj = inj
	s.injSite = site
	s.mu.Unlock()
}

// faultHooks snapshots the injector under the lock.
func (s *Space) faultHooks() (*faults.Injector, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj, s.injSite
}

// Write stores an entry under a lease. With a transaction, the entry is
// visible only inside that transaction until it commits. On a durable
// space the entry is journaled before Write returns: a nil error means the
// write survives a crash.
func (s *Space) Write(e Entry, tx *txn.Transaction, leaseDur time.Duration) (lease.Lease, error) {
	if e.Kind == "" {
		return lease.Lease{}, errors.New("space: entry must have a kind")
	}
	inj, site := s.faultHooks()
	if err := inj.Inject(site + FaultSiteWrite); err != nil {
		return lease.Lease{}, err
	}
	lse := s.leases.Grant(leaseDur)
	if inj.Drop(site + FaultSiteWrite) {
		// Lost write: the caller gets a lease and believes the entry was
		// stored, but nothing ever becomes visible — the tuple-space
		// analogue of a message lost on the wire.
		return lse, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = lse.Cancel()
		return lease.Lease{}, ErrClosed
	}
	var part *spaceTxnPart
	txnID := uint64(0)
	if tx != nil {
		var err error
		if part, err = s.joinLocked(tx); err != nil {
			s.mu.Unlock()
			_ = lse.Cancel()
			return lease.Lease{}, err
		}
		txnID = tx.ID()
	}
	if err := s.checkGuardLocked(); err != nil {
		s.mu.Unlock()
		_ = lse.Cancel()
		return lease.Lease{}, err
	}
	id := s.nextID + 1
	if s.journal != nil {
		// Only a durable space pays for field encoding; volatile spaces
		// skip the record build entirely on this hot path.
		if err := s.journalLocked(journalRecord{
			Op: opWrite, ID: id, Txn: txnID, Kind: e.Kind,
			Fields:  encodeFields(e.Fields),
			LeaseMS: int64(leaseDur / time.Millisecond),
		}); err != nil {
			s.mu.Unlock()
			_ = lse.Cancel()
			return lease.Lease{}, err
		}
	}
	s.nextID = id
	se := &storedEntry{id: id, entry: e.Clone(), leaseID: lse.ID, writtenTxn: txnID}
	if part != nil {
		part.written = append(part.written, se.id)
	}
	s.entries[se.id] = se
	s.byLease[lse.ID] = se.id
	s.indexAddLocked(se)
	s.wakeWaitersLocked(se)
	s.mu.Unlock()
	return lse, nil
}

// Read returns a copy of a matching entry without removing it, blocking up
// to timeout (0 = non-blocking, Forever = indefinitely).
func (s *Space) Read(tmpl Entry, tx *txn.Transaction, timeout time.Duration) (Entry, error) {
	return s.acquire(tmpl, tx, timeout, false)
}

// Take removes and returns a matching entry, blocking up to timeout. Under
// a transaction the removal is provisional until commit.
func (s *Space) Take(tmpl Entry, tx *txn.Transaction, timeout time.Duration) (Entry, error) {
	return s.acquire(tmpl, tx, timeout, true)
}

// Count reports visible entries matching the template (outside any txn).
func (s *Space) Count(tmpl Entry) int {
	s.leases.Sweep()
	s.mu.Lock()
	defer s.mu.Unlock()
	candidates, ok := s.candidatesLocked(tmpl)
	if !ok {
		return 0
	}
	n := 0
	for _, id := range candidates {
		se := s.entries[id]
		if s.visibleLocked(se, 0) && tmpl.Matches(se.entry) {
			n++
		}
	}
	return n
}

// Sweep expires lapsed entry leases.
func (s *Space) Sweep() {
	s.leases.Sweep()
}

// Close fails all blocked operations and rejects new ones.
func (s *Space) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var ws []*waiter
	for _, q := range s.waitq {
		ws = append(ws, q...)
	}
	s.waitq = map[string][]*waiter{}
	s.mu.Unlock()
	for _, w := range ws {
		close(w.result)
	}
}

func (s *Space) acquire(tmpl Entry, tx *txn.Transaction, timeout time.Duration, take bool) (Entry, error) {
	inj, site := s.faultHooks()
	if err := inj.Inject(site + FaultSiteTake); err != nil {
		return Entry{}, err
	}
	s.leases.Sweep()
	txnID := uint64(0)
	if tx != nil {
		txnID = tx.ID()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Entry{}, ErrClosed
	}
	if se := s.matchLocked(tmpl, txnID); se != nil {
		out, err := s.claimLocked(se, tx, take)
		s.mu.Unlock()
		return out, err
	}
	if timeout <= 0 {
		s.mu.Unlock()
		return Entry{}, ErrTimeout
	}
	w := &waiter{template: tmpl, take: take, txnID: txnID, result: make(chan Entry, 1)}
	s.waitq[tmpl.Kind] = append(s.waitq[tmpl.Kind], w)
	s.mu.Unlock()
	return s.awaitWaiter(w, tmpl.Kind, timeout)
}

// awaitWaiter blocks on a registered waiter until it is served, the space
// closes, or the timeout lapses (the waiter is then deregistered).
func (s *Space) awaitWaiter(w *waiter, kind string, timeout time.Duration) (Entry, error) {
	var timer clockwork.Timer
	var timeoutCh <-chan time.Time
	if timeout != Forever {
		timer = s.clock.NewTimer(timeout)
		timeoutCh = timer.C()
		defer timer.Stop()
	}
	select {
	case e, ok := <-w.result:
		if !ok {
			return Entry{}, ErrClosed
		}
		return e, nil
	case <-timeoutCh:
		s.mu.Lock()
		// Remove the waiter unless it was already served concurrently.
		q := s.waitq[kind]
		for i, cand := range q {
			if cand == w {
				s.waitq[kind] = append(q[:i], q[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		select {
		case e, ok := <-w.result:
			if ok {
				return e, nil // raced: served just before removal
			}
			return Entry{}, ErrClosed
		default:
			return Entry{}, ErrTimeout
		}
	}
}

// matchLocked finds the lowest-id visible entry matching tmpl for txnID.
// Candidates come from the kind/field index in ascending id order, so the
// first visible match is the FIFO winner.
func (s *Space) matchLocked(tmpl Entry, txnID uint64) *storedEntry {
	candidates, ok := s.candidatesLocked(tmpl)
	if !ok {
		return nil
	}
	for _, id := range candidates {
		se := s.entries[id]
		if s.visibleLocked(se, txnID) && tmpl.Matches(se.entry) {
			return se
		}
	}
	return nil
}

// visibleLocked reports whether txnID can see the entry.
func (s *Space) visibleLocked(se *storedEntry, txnID uint64) bool {
	if !s.leases.Valid(se.leaseID) {
		return false
	}
	if se.takenTxn != 0 && se.takenTxn != txnID {
		return false
	}
	if se.writtenTxn != 0 && se.writtenTxn != txnID {
		return false
	}
	return true
}

// claimLocked performs the read/take on a matched entry. Takes are
// journaled before the entry is touched: a journaling error leaves the
// entry intact and fails the operation.
func (s *Space) claimLocked(se *storedEntry, tx *txn.Transaction, take bool) (Entry, error) {
	if !take {
		return se.entry.Clone(), nil
	}
	if err := s.checkGuardLocked(); err != nil {
		return Entry{}, err
	}
	if tx == nil {
		if err := s.journalLocked(journalRecord{Op: opTake, ID: se.id}); err != nil {
			return Entry{}, err
		}
		s.removeLocked(se)
		return se.entry.Clone(), nil
	}
	part, err := s.joinLocked(tx)
	if err != nil {
		return Entry{}, err
	}
	if se.writtenTxn == tx.ID() {
		// Taking an entry this transaction itself wrote: net effect is
		// nothing, remove it outright. The removal is unconditional (it
		// stands even if the transaction later aborts), so the journal
		// record carries no txn tag.
		if err := s.journalLocked(journalRecord{Op: opTake, ID: se.id}); err != nil {
			return Entry{}, err
		}
		s.removeLocked(se)
		for i, id := range part.written {
			if id == se.id {
				part.written = append(part.written[:i], part.written[i+1:]...)
				break
			}
		}
		return se.entry.Clone(), nil
	}
	if err := s.journalLocked(journalRecord{Op: opTake, ID: se.id, Txn: tx.ID()}); err != nil {
		return Entry{}, err
	}
	se.takenTxn = tx.ID()
	part.taken = append(part.taken, se.id)
	return se.entry.Clone(), nil
}

func (s *Space) removeLocked(se *storedEntry) {
	delete(s.entries, se.id)
	delete(s.byLease, se.leaseID)
	s.indexRemoveLocked(se)
	_ = s.leases.Cancel(se.leaseID)
}

// wakeWaitersLocked offers one newly visible entry to the blocked
// operations whose template kind it carries, FIFO per arrival order. Only
// that kind's queue is consulted — waiters on other kinds cannot match and
// are not re-scanned, which keeps the wake cost independent of the
// unrelated waiter population.
//
//lint:blockok waiter result channels are buffered (capacity 1) and written at most once per waiter, so the send under s.mu cannot block
func (s *Space) wakeWaitersLocked(se *storedEntry) {
	kind := se.entry.Kind
	q := s.waitq[kind]
	if len(q) == 0 {
		return
	}
	remaining := q[:0]
	for i, w := range q {
		if _, live := s.entries[se.id]; !live {
			// A previous waiter consumed the entry outright; everyone else
			// keeps waiting.
			remaining = append(remaining, q[i:]...)
			break
		}
		if !s.visibleLocked(se, w.txnID) || !w.template.Matches(se.entry) {
			remaining = append(remaining, w)
			continue
		}
		var tx *txn.Transaction
		if w.txnID != 0 {
			if part, ok := s.txns[w.txnID]; ok {
				tx = part.tx
			}
		}
		out, err := s.claimLocked(se, tx, w.take)
		if err != nil {
			remaining = append(remaining, w)
			continue
		}
		w.result <- out
	}
	if len(remaining) == 0 {
		delete(s.waitq, kind)
	} else {
		s.waitq[kind] = remaining
	}
}

func (s *Space) onLeaseExpired(leaseID uint64) {
	s.mu.Lock()
	if err := s.checkGuardLocked(); err != nil {
		// Fenced: the promoted peer owns expiry now. The entry stays; the
		// superseded space is about to be closed anyway.
		s.mu.Unlock()
		return
	}
	if id, ok := s.byLease[leaseID]; ok {
		// Best-effort journaling: if the expire record fails to land,
		// replay re-grants the rebased lease and the entry re-expires
		// after recovery instead — expiry is idempotent.
		_ = s.journalLocked(journalRecord{Op: opExpire, ID: id})
		delete(s.byLease, leaseID)
		if se, ok := s.entries[id]; ok {
			delete(s.entries, id)
			s.indexRemoveLocked(se)
		}
	}
	s.mu.Unlock()
}

// --- transaction participation ---

type spaceTxnPart struct {
	space   *Space
	tx      *txn.Transaction
	written []uint64
	taken   []uint64
}

// joinLocked returns the participant state for tx, enrolling on first use.
func (s *Space) joinLocked(tx *txn.Transaction) (*spaceTxnPart, error) {
	if part, ok := s.txns[tx.ID()]; ok {
		return part, nil
	}
	part := &spaceTxnPart{space: s, tx: tx}
	if err := tx.Join(part); err != nil {
		return nil, fmt.Errorf("space: joining transaction: %w", err)
	}
	s.txns[tx.ID()] = part
	return part, nil
}

// Prepare implements txn.Participant.
func (p *spaceTxnPart) Prepare(uint64) (txn.Vote, error) {
	p.space.mu.Lock()
	defer p.space.mu.Unlock()
	if len(p.written) == 0 && len(p.taken) == 0 {
		return txn.VoteNotChanged, nil
	}
	return txn.VotePrepared, nil
}

// Commit implements txn.Participant: staged writes become visible and
// provisional takes become permanent. On a durable space the commit record
// must land before anything is applied — if it cannot, the commit fails
// and replay will abort the transaction, matching what a crash at this
// point would do.
func (p *spaceTxnPart) Commit(txnID uint64) error {
	p.space.mu.Lock()
	if err := p.space.checkGuardLocked(); err != nil {
		p.space.mu.Unlock()
		return err
	}
	if err := p.space.journalLocked(journalRecord{Op: opCommit, Txn: txnID}); err != nil {
		p.space.mu.Unlock()
		return err
	}
	var revealed []*storedEntry
	for _, id := range p.written {
		if se, ok := p.space.entries[id]; ok {
			se.writtenTxn = 0
			revealed = append(revealed, se)
		}
	}
	for _, id := range p.taken {
		if se, ok := p.space.entries[id]; ok {
			p.space.removeLocked(se)
		}
	}
	delete(p.space.txns, txnID)
	for _, se := range revealed {
		p.space.wakeWaitersLocked(se)
	}
	p.space.mu.Unlock()
	return nil
}

// Abort implements txn.Participant: staged writes vanish and provisional
// takes are restored. The abort record is best-effort — replay aborts any
// transaction without a commit record, so a lost abort record converges to
// the same state.
func (p *spaceTxnPart) Abort(txnID uint64) error {
	p.space.mu.Lock()
	// The abort record is best-effort and so is the fence: a fenced space
	// skips the journal (replay aborts unresolved transactions anyway) but
	// still rolls back its in-memory staging.
	if err := p.space.checkGuardLocked(); err == nil {
		_ = p.space.journalLocked(journalRecord{Op: opAbort, Txn: txnID})
	}
	for _, id := range p.written {
		if se, ok := p.space.entries[id]; ok {
			p.space.removeLocked(se)
		}
	}
	var restored []*storedEntry
	for _, id := range p.taken {
		if se, ok := p.space.entries[id]; ok {
			se.takenTxn = 0
			restored = append(restored, se)
		}
	}
	delete(p.space.txns, txnID)
	for _, se := range restored {
		p.space.wakeWaitersLocked(se)
	}
	p.space.mu.Unlock()
	return nil
}
