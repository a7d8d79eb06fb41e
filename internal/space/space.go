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
// The space clones on Write, on Read and on a provisional (transactional)
// take, so stored entries never alias caller-held maps; an entry that
// leaves the space is handed to its taker without a second copy. Recovery
// rebuilds field maps from the journal, so replayed entries cannot alias
// pre-crash ones either.
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
	// handed marks a non-transactional write promised to a
	// non-transactional taker in the commit that writes it: it is
	// journaled as its take alone and never stored.
	handed bool
}

// waiter is a blocked Read, Take or TakeAny. A take waiter accepts up to
// max entries (1 for Take); a read waiter is served one clone.
type waiter struct {
	template Entry
	take     bool
	max      int
	tx       *txn.Transaction
	txnID    uint64
	result   chan []Entry
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
// write survives a crash. It is a one-entry WriteBatch.
func (s *Space) Write(e Entry, tx *txn.Transaction, leaseDur time.Duration) (lease.Lease, error) {
	leases, err := s.WriteBatch([]Entry{e}, tx, leaseDur)
	if err != nil {
		return lease.Lease{}, err
	}
	return leases[0], nil
}

// Read returns a copy of a matching entry without removing it, blocking up
// to timeout (0 = non-blocking, Forever = indefinitely).
func (s *Space) Read(tmpl Entry, tx *txn.Transaction, timeout time.Duration) (Entry, error) {
	out, err := s.acquire(tmpl, false, 1, tx, timeout)
	if err != nil {
		return Entry{}, err
	}
	return out[0], nil
}

// Take removes and returns a matching entry, blocking up to timeout. Under
// a transaction the removal is provisional until commit.
func (s *Space) Take(tmpl Entry, tx *txn.Transaction, timeout time.Duration) (Entry, error) {
	out, err := s.acquire(tmpl, true, 1, tx, timeout)
	if err != nil {
		return Entry{}, err
	}
	return out[0], nil
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

// acquire serves Read, Take and TakeAny: it reads one match or takes up
// to max under one journal commit, and otherwise queues a waiter that a
// revealing mutation serves (see planHandoffsLocked).
func (s *Space) acquire(tmpl Entry, take bool, max int, tx *txn.Transaction, timeout time.Duration) ([]Entry, error) {
	inj, site := s.faultHooks()
	if err := inj.Inject(site + FaultSiteTake); err != nil {
		return nil, err
	}
	s.leases.Sweep()
	txnID := uint64(0)
	if tx != nil {
		txnID = tx.ID()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if take {
		out, err := s.takeBatchLocked(tmpl, max, tx, txnID)
		if err != nil || len(out) > 0 {
			s.mu.Unlock()
			return out, err
		}
	} else if picked := s.pickLocked(tmpl, txnID, 1); len(picked) > 0 {
		out := []Entry{picked[0].entry.Clone()}
		s.mu.Unlock()
		return out, nil
	}
	if timeout <= 0 {
		s.mu.Unlock()
		return nil, ErrTimeout
	}
	w := &waiter{template: tmpl, take: take, max: max, tx: tx, txnID: txnID, result: make(chan []Entry, 1)}
	s.waitq[tmpl.Kind] = append(s.waitq[tmpl.Kind], w)
	s.mu.Unlock()
	return s.awaitWaiter(w, timeout)
}

// awaitWaiter blocks on a registered waiter until it is served, the space
// closes, or the timeout lapses (the waiter is then deregistered).
func (s *Space) awaitWaiter(w *waiter, timeout time.Duration) ([]Entry, error) {
	var timer clockwork.Timer
	var timeoutCh <-chan time.Time
	if timeout != Forever {
		timer = s.clock.NewTimer(timeout)
		timeoutCh = timer.C()
		defer timer.Stop()
	}
	select {
	case out, ok := <-w.result:
		if !ok {
			return nil, ErrClosed
		}
		return out, nil
	case <-timeoutCh:
		s.mu.Lock()
		s.dequeueLocked(w) // unless it was already served concurrently
		s.mu.Unlock()
		select {
		case out, ok := <-w.result:
			if ok {
				return out, nil // raced: served just before removal
			}
			return nil, ErrClosed
		default:
			return nil, ErrTimeout
		}
	}
}

// dequeueLocked removes w from its kind's wait queue, if still queued.
func (s *Space) dequeueLocked(w *waiter) {
	kind := w.template.Kind
	q := s.waitq[kind]
	for i, cand := range q {
		if cand == w {
			q = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(s.waitq, kind)
	} else {
		s.waitq[kind] = q
	}
}

// pickLocked returns up to max visible entries matching tmpl for txnID, in
// FIFO (ascending id) order. Candidates come from the kind/field index in
// ascending id order; they are collected before anything is mutated —
// candidatesLocked returns live index slices that must not change
// mid-iteration.
func (s *Space) pickLocked(tmpl Entry, txnID uint64, max int) []*storedEntry {
	candidates, ok := s.candidatesLocked(tmpl)
	if !ok {
		return nil
	}
	var picked []*storedEntry
	for _, id := range candidates {
		se := s.entries[id]
		if s.visibleLocked(se, txnID) && tmpl.Matches(se.entry) {
			picked = append(picked, se)
			if len(picked) == max {
				break
			}
		}
	}
	return picked
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

// takeRecord is the journal record for taking se under txnID (0 = none).
// Taking an entry the transaction itself wrote removes it outright — the
// removal stands even if the transaction later aborts — so that record
// carries no txn tag, like a take outside any transaction.
func takeRecord(se *storedEntry, txnID uint64) record {
	if se.writtenTxn == txnID {
		txnID = 0
	}
	return record{op: opTake, id: se.id, txn: txnID}
}

// applyTakeLocked applies a journaled take of se by part (nil outside a
// transaction) and returns the taker's entry. An entry that leaves the
// space — a take outside a transaction, or of the transaction's own staged
// write — is handed over as stored: the space cloned it on Write and keeps
// no reference. A provisional take gets a clone, because Abort restores
// the stored entry.
func (s *Space) applyTakeLocked(se *storedEntry, part *spaceTxnPart) Entry {
	if part != nil && se.writtenTxn != part.tx.ID() {
		se.takenTxn = part.tx.ID()
		part.taken = append(part.taken, se.id)
		return se.entry.Clone()
	}
	s.removeLocked(se)
	if part != nil {
		for i, id := range part.written {
			if id == se.id {
				part.written = append(part.written[:i], part.written[i+1:]...)
				break
			}
		}
	}
	return se.entry
}

func (s *Space) removeLocked(se *storedEntry) {
	if !se.handed {
		delete(s.entries, se.id)
		delete(s.byLease, se.leaseID)
		s.indexRemoveLocked(se)
	}
	_ = s.leases.Cancel(se.leaseID)
}

// handoff is a blocked waiter served by entries a mutation revealed.
type handoff struct {
	w    *waiter
	part *spaceTxnPart // the waiter's participant, for a take under a txn
	got  []*storedEntry
}

// planHandoffsLocked offers entries a mutation is about to reveal — to
// every transaction, or only to txnID's when it is non-zero — to the
// blocked waiters of their kinds, FIFO per kind: a read waiter is promised
// a clone of its first match, a take waiter up to its max matches not
// promised to an earlier taker. Revealed entries are in ascending id
// order. Nothing is applied here: the caller journals the plan's take
// records (takeRecords) in its one batch, so that batch acknowledges the
// mutation and its hand-offs together, and handOffLocked applies the plan
// once it has landed. If it does not, the caller drops the plan and every
// waiter keeps waiting.
func (s *Space) planHandoffsLocked(revealed []*storedEntry, txnID uint64) []handoff {
	var plan []handoff
	var promised map[*storedEntry]bool
	for i, se := range revealed {
		kind := se.entry.Kind
		if len(s.waitq[kind]) == 0 || kindBefore(revealed[:i], kind) {
			continue
		}
		for _, w := range s.waitq[kind] {
			if txnID != 0 && w.txnID != txnID {
				continue
			}
			var got []*storedEntry
			for _, c := range revealed[i:] {
				if len(got) == w.max {
					break
				}
				if c.entry.Kind == kind && !promised[c] && s.leases.Valid(c.leaseID) && w.template.Matches(c.entry) {
					got = append(got, c)
				}
			}
			if len(got) == 0 {
				continue
			}
			h := handoff{w: w, got: got}
			if w.take {
				if w.tx != nil {
					part, err := s.joinLocked(w.tx)
					if err != nil {
						continue // its transaction is settling: keep waiting
					}
					h.part = part
				}
				if promised == nil {
					promised = make(map[*storedEntry]bool)
				}
				for _, c := range got {
					promised[c] = true
				}
			}
			plan = append(plan, h)
		}
	}
	return plan
}

// takeRecords appends the journal records of plan's takes to recs.
func takeRecords(recs []record, plan []handoff) []record {
	for _, h := range plan {
		if h.w.take {
			for _, se := range h.got {
				recs = append(recs, takeRecord(se, h.w.txnID))
			}
		}
	}
	return recs
}

// kindBefore reports whether an earlier revealed entry has kind, whose
// waiters planHandoffsLocked has then already walked.
func kindBefore(ses []*storedEntry, kind string) bool {
	for _, se := range ses {
		if se.entry.Kind == kind {
			return true
		}
	}
	return false
}

// handOffLocked applies a plan whose take records have landed: each
// waiter gets its entries and leaves its queue.
//
//lint:blockok waiter result channels are buffered (capacity 1) and a waiter is served at most once — handOffLocked dequeues it under the same s.mu hold — so the send under s.mu cannot block
func (s *Space) handOffLocked(plan []handoff) {
	for _, h := range plan {
		out := make([]Entry, len(h.got))
		for i, se := range h.got {
			if h.w.take {
				out[i] = s.applyTakeLocked(se, h.part)
			} else {
				out[i] = se.entry.Clone()
			}
		}
		s.dequeueLocked(h.w)
		h.w.result <- out
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
		_ = s.journalBatchLocked([]record{{op: opExpire, id: id}})
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
// A transaction that is no longer active (voting, committed or aborted)
// cannot take part in a new operation.
func (s *Space) joinLocked(tx *txn.Transaction) (*spaceTxnPart, error) {
	if part, ok := s.txns[tx.ID()]; ok && tx.State() == txn.Active {
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
// provisional takes become permanent. Waiters the revealed writes serve
// are handed their entries under the same journal batch as the commit
// record. On a durable space that batch must land before anything is
// applied — if it cannot, the commit fails and replay will abort the
// transaction, matching what a crash at this point would do.
func (p *spaceTxnPart) Commit(txnID uint64) error {
	s := p.space
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkGuardLocked(); err != nil {
		return err
	}
	revealed := s.liveLocked(p.written)
	plan := s.planHandoffsLocked(revealed, 0)
	if err := s.journalBatchLocked(takeRecords([]record{{op: opCommit, txn: txnID}}, plan)); err != nil {
		return err
	}
	for _, se := range revealed {
		se.writtenTxn = 0
	}
	for _, se := range s.liveLocked(p.taken) {
		s.removeLocked(se)
	}
	delete(s.txns, txnID)
	s.handOffLocked(plan)
	return nil
}

// Abort implements txn.Participant: staged writes vanish and provisional
// takes are restored, and the restored entries serve waiters under the
// abort record's journal batch. The abort record is best-effort — replay
// aborts any transaction without a commit record, so a lost abort record
// converges to the same state — but the hand-offs are not: if the batch
// is fenced or fails, the rollback still applies and every waiter keeps
// waiting.
func (p *spaceTxnPart) Abort(txnID uint64) error {
	s := p.space
	s.mu.Lock()
	defer s.mu.Unlock()
	restored := s.liveLocked(p.taken)
	var plan []handoff
	if err := s.checkGuardLocked(); err == nil {
		plan = s.planHandoffsLocked(restored, 0)
		if s.journalBatchLocked(takeRecords([]record{{op: opAbort, txn: txnID}}, plan)) != nil {
			plan = nil
		}
	}
	for _, se := range s.liveLocked(p.written) {
		s.removeLocked(se)
	}
	for _, se := range restored {
		se.takenTxn = 0
	}
	delete(s.txns, txnID)
	s.handOffLocked(plan)
	return nil
}

// liveLocked returns the stored entries among ids, in order.
func (s *Space) liveLocked(ids []uint64) []*storedEntry {
	var out []*storedEntry
	for _, id := range ids {
		if se, ok := s.entries[id]; ok {
			out = append(out, se)
		}
	}
	return out
}
