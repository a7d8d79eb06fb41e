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
// journaling failure stores nothing and grants no lease. Blocked takers
// the entries serve are handed them in the same group commit (see
// planHandoffsLocked).
//
// WriteBatch takes ownership of each entry's field map: the space stores
// it, or hands it to a taker, without copying it, so the caller must not
// modify the map after the call. The space itself never writes into it.
//
// Returned leases are positionally aligned with entries. An entry handed
// to a taker in the commit that writes it never lands and is granted no
// lease: the entries handed off in one call share one spent lease
// (lease.Table.Spent), whose Renew and Cancel fail with
// lease.ErrUnknownLease, as for a lease already cancelled at its grantor.
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
	// One allocation holds the batch's stored entries.
	slab := make([]storedEntry, len(entries))
	ses := make([]*storedEntry, 0, len(entries))
	for i, e := range entries {
		if inj.Drop(site + FaultSiteWrite) {
			// Lost write: the caller gets a lease and believes the entry
			// was stored, but nothing ever becomes visible — the
			// tuple-space analogue of a message lost on the wire.
			leases[i] = s.leases.Grant(leaseDur)
			continue
		}
		slab[i].entry = e
		ses = append(ses, &slab[i])
	}
	if len(ses) == 0 {
		return leases, nil
	}
	// storeLocked fills the leases of the entries that reach the space;
	// beside lost writes, they go to the positions still empty.
	landed := leases
	if len(ses) < len(entries) {
		landed = make([]lease.Lease, len(ses))
	}
	s.mu.Lock()
	err := s.storeLocked(ses, landed, tx, leaseDur)
	s.mu.Unlock()
	if err != nil {
		for _, l := range leases {
			if l.Grantor != nil { // a lost write's
				s.leases.Retire(l.ID)
			}
		}
		return nil, err
	}
	if len(ses) < len(entries) {
		k := 0
		for i := range leases {
			if leases[i].Grantor == nil {
				leases[i] = landed[k]
				k++
			}
		}
	}
	return leases, nil
}

// storeLocked journals and applies new entries together with the
// hand-offs they make to blocked waiters, under one group commit, and
// fills leases (aligned with ses). An entry taken in that commit is
// journaled as its take alone and handed over without being stored or
// granted a lease; every other entry's lease is granted once the commit
// has landed.
func (s *Space) storeLocked(ses []*storedEntry, leases []lease.Lease, tx *txn.Transaction, leaseDur time.Duration) error {
	if s.closed {
		return ErrClosed
	}
	var part *spaceTxnPart
	txnID := uint64(0)
	if tx != nil {
		var err error
		if part, err = s.joinLocked(tx); err != nil {
			return err
		}
		txnID = tx.ID()
	}
	if err := s.checkGuardLocked(); err != nil {
		return err
	}
	for i, se := range ses {
		se.id = s.nextID + uint64(i) + 1
		se.writtenTxn = txnID
	}
	plan := s.planHandoffsLocked(ses, txnID)
	// An entry a non-transactional taker gets in the commit that writes it
	// never lands: its take record alone consumes its id, which is all
	// replay needs. Planning under a transaction serves only that
	// transaction's takers, so such a taker implies a plain write.
	for _, h := range plan {
		if h.w.take && h.w.tx == nil {
			for _, se := range h.got {
				se.handed = true
			}
		}
	}
	if s.journal != nil {
		recs := make([]record, 0, 2*len(ses))
		for _, se := range ses {
			if !se.handed {
				recs = append(recs, record{op: opWrite, id: se.id, txn: txnID, entry: se.entry,
					leaseMS: int64(leaseDur / time.Millisecond)})
			}
		}
		if err := s.journalBatchLocked(takeRecords(recs, plan)); err != nil {
			return err
		}
	}
	s.nextID += uint64(len(ses))
	var spent lease.Lease // one handle for every entry handed off here
	for i, se := range ses {
		if part != nil {
			part.written = append(part.written, se.id)
		}
		if se.handed {
			if spent.Grantor == nil {
				spent = s.leases.Spent(leaseDur)
			}
			leases[i] = spent
			continue
		}
		leases[i] = s.leases.Grant(leaseDur)
		se.leaseID = leases[i].ID
		s.entries[se.id] = se
		s.byLease[se.leaseID] = se.id
		s.indexAddLocked(se)
	}
	s.handOffLocked(plan)
	return nil
}

// TakeAny removes and returns up to max entries matching the template in
// FIFO order — at least one, blocking up to timeout for the first. The
// grab is opportunistic: whatever is visible when the space is scanned is
// taken under one lock and one journal group commit. A blocked TakeAny is
// handed up to max of the entries the waking mutation reveals, inside
// that mutation's group commit; the call never blocks waiting to fill the
// batch. Under a transaction the removals are provisional until commit,
// exactly as Take.
func (s *Space) TakeAny(tmpl Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]Entry, error) {
	if max <= 0 {
		return nil, errors.New("space: TakeAny wants a positive max")
	}
	return s.acquire(tmpl, true, max, tx, timeout)
}

// takeBatchLocked removes up to max visible matches in FIFO order under
// one journal group commit. Returns (nil, nil) when nothing matches; a
// journaling error takes nothing.
func (s *Space) takeBatchLocked(tmpl Entry, max int, tx *txn.Transaction, txnID uint64) ([]Entry, error) {
	picked := s.pickLocked(tmpl, txnID, max)
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
		recs := make([]record, len(picked))
		for i, se := range picked {
			recs[i] = takeRecord(se, txnID)
		}
		if err := s.journalBatchLocked(recs); err != nil {
			return nil, err
		}
	}
	out := make([]Entry, len(picked))
	for i, se := range picked {
		out[i] = s.applyTakeLocked(se, part)
	}
	return out, nil
}
