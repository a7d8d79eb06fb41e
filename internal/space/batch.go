package space

import (
	"errors"
	"time"

	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

// WriteBatch stores every entry under its own lease with one lock
// acquisition and — on a durable space — one journal group commit, so a
// caller with n entries in hand pays one fsync instead of n. Semantics
// per entry are identical to Write: with a transaction the entries are
// staged until commit, and a nil error means every non-dropped entry is
// durable. The batch is all-or-nothing at the acknowledgement level: a
// journaling failure stores nothing and cancels every granted lease.
//
// Returned leases are positionally aligned with entries.
func (s *Space) WriteBatch(entries []Entry, tx *txn.Transaction, leaseDur time.Duration) ([]lease.Lease, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	for _, e := range entries {
		if e.Kind == "" {
			return nil, errors.New("space: entry must have a kind")
		}
	}
	inj, site := s.faultHooks()
	if err := inj.Inject(site + FaultSiteWrite); err != nil {
		return nil, err
	}
	leases := make([]lease.Lease, len(entries))
	stored := make([]bool, len(entries))
	anyStored := false
	for i := range entries {
		leases[i] = s.leases.Grant(leaseDur)
		if inj.Drop(site + FaultSiteWrite) {
			// Lost write, same contract as Write: the caller holds a lease
			// for an entry that never becomes visible.
			continue
		}
		stored[i] = true
		anyStored = true
	}
	if !anyStored {
		return leases, nil
	}
	cancelAll := func() {
		for _, l := range leases {
			_ = l.Cancel()
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancelAll()
		return nil, ErrClosed
	}
	var part *spaceTxnPart
	txnID := uint64(0)
	if tx != nil {
		var err error
		if part, err = s.joinLocked(tx); err != nil {
			s.mu.Unlock()
			cancelAll()
			return nil, err
		}
		txnID = tx.ID()
	}
	if err := s.checkGuardLocked(); err != nil {
		s.mu.Unlock()
		cancelAll()
		return nil, err
	}
	if s.journal != nil {
		recs := make([]journalRecord, 0, len(entries))
		id := s.nextID
		for i, e := range entries {
			if !stored[i] {
				continue
			}
			id++
			recs = append(recs, journalRecord{
				Op: opWrite, ID: id, Txn: txnID, Kind: e.Kind,
				Fields:  encodeFields(e.Fields),
				LeaseMS: int64(leaseDur / time.Millisecond),
			})
		}
		if err := s.journalBatchLocked(recs); err != nil {
			s.mu.Unlock()
			cancelAll()
			return nil, err
		}
	}
	wake := make([]*storedEntry, 0, len(entries))
	for i, e := range entries {
		if !stored[i] {
			continue
		}
		s.nextID++
		se := &storedEntry{id: s.nextID, entry: e.Clone(), leaseID: leases[i].ID, writtenTxn: txnID}
		if part != nil {
			part.written = append(part.written, se.id)
		}
		s.entries[se.id] = se
		s.byLease[leases[i].ID] = se.id
		s.indexAddLocked(se)
		wake = append(wake, se)
	}
	for _, se := range wake {
		s.wakeWaitersLocked(se)
	}
	s.mu.Unlock()
	return leases, nil
}

// TakeAny removes and returns up to max entries matching the template in
// FIFO order — at least one, blocking up to timeout for the first. The
// grab is opportunistic: whatever is visible when the space is scanned is
// taken under one lock and one journal group commit; the call never
// blocks waiting to fill the batch. Under a transaction the removals are
// provisional until commit, exactly as Take.
func (s *Space) TakeAny(tmpl Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]Entry, error) {
	if max <= 0 {
		return nil, errors.New("space: TakeAny wants a positive max")
	}
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
	out, err := s.takeBatchLocked(tmpl, max, tx, txnID)
	if err != nil || len(out) > 0 {
		s.mu.Unlock()
		return out, err
	}
	if timeout <= 0 {
		s.mu.Unlock()
		return nil, ErrTimeout
	}
	w := &waiter{template: tmpl, take: true, txnID: txnID, result: make(chan Entry, 1)}
	s.waitq[tmpl.Kind] = append(s.waitq[tmpl.Kind], w)
	s.mu.Unlock()
	first, err := s.awaitWaiter(w, tmpl.Kind, timeout)
	if err != nil {
		return nil, err
	}
	out = append(out, first)
	if max > 1 {
		// Drain whatever arrived alongside the entry that woke us. The
		// first entry is already taken (and journaled by the waker), so an
		// error on this opportunistic top-up is dropped — the contract is
		// "at least one".
		s.mu.Lock()
		if !s.closed {
			if more, merr := s.takeBatchLocked(tmpl, max-1, tx, txnID); merr == nil {
				out = append(out, more...)
			}
		}
		s.mu.Unlock()
	}
	return out, nil
}

// takeBatchLocked removes up to max visible matches in FIFO order under
// one journal group commit. Candidates are collected before anything is
// mutated — candidatesLocked returns live index slices that must not
// change mid-iteration. Returns (nil, nil) when nothing matches; a
// journaling error takes nothing.
func (s *Space) takeBatchLocked(tmpl Entry, max int, tx *txn.Transaction, txnID uint64) ([]Entry, error) {
	candidates, ok := s.candidatesLocked(tmpl)
	if !ok {
		return nil, nil
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
	if len(picked) == 0 {
		return nil, nil
	}
	if err := s.checkGuardLocked(); err != nil {
		return nil, err
	}
	var part *spaceTxnPart
	if tx != nil {
		var err error
		if part, err = s.joinLocked(tx); err != nil {
			return nil, err
		}
	}
	if s.journal != nil {
		recs := make([]journalRecord, len(picked))
		for i, se := range picked {
			rec := journalRecord{Op: opTake, ID: se.id}
			// Taking an entry the transaction itself wrote removes it
			// outright, so (as in claimLocked) the record carries no txn tag.
			if tx != nil && se.writtenTxn != txnID {
				rec.Txn = txnID
			}
			recs[i] = rec
		}
		if err := s.journalBatchLocked(recs); err != nil {
			return nil, err
		}
	}
	out := make([]Entry, len(picked))
	for i, se := range picked {
		out[i] = se.entry.Clone()
		switch {
		case tx == nil:
			s.removeLocked(se)
		case se.writtenTxn == txnID:
			s.removeLocked(se)
			for j, id := range part.written {
				if id == se.id {
					part.written = append(part.written[:j], part.written[j+1:]...)
					break
				}
			}
		default:
			se.takenTxn = txnID
			part.taken = append(part.taken, se.id)
		}
	}
	return out, nil
}
