package space

import (
	"fmt"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
)

// Journal is the durability contract the space writes through: the subset
// of *wal.Log the space relies on, lifted to an interface so the
// replication layer (internal/repl) can substitute a journal that ships
// every batch to a backup before acknowledging it. A nil Journal field
// means the space is volatile.
type Journal interface {
	// AppendBatch durably adds every payload under one acknowledgement.
	//
	//lint:blockok journal-before-ack: the space journals inside its critical section so journal order, ship order and memory order agree
	AppendBatch(payloads [][]byte) (uint64, error)
	// WriteSnapshot records a point-in-time state and compacts the log.
	//
	//lint:blockok journal-before-ack: checkpoints run under s.mu so the snapshot is a consistent cut of the space
	WriteSnapshot(data []byte) error
	// Snapshot returns the latest snapshot, if any.
	Snapshot() (data []byte, seq uint64, taken time.Time, ok bool)
	// Replay streams every record after the snapshot in sequence order.
	Replay(fn func(seq uint64, payload []byte) error) error
}

// SetGuard installs a check consulted — under s.mu, before the journal
// record for any mutation is appended — by every durable mutation path.
// The replication layer uses it for epoch fencing: a primary that has
// been superseded installs a guard returning its fencing error, so no
// write, take, expire, commit or abort can be journaled (and therefore
// acknowledged) under a stale epoch. A nil guard (the default) admits
// everything.
func (s *Space) SetGuard(fn func() error) {
	s.mu.Lock()
	s.guard = fn
	s.mu.Unlock()
}

// checkGuardLocked consults the mutation guard. Caller holds s.mu. Every
// function that journals (journalBatchLocked callers) must call this
// first — the epochguard lint check enforces it.
//
//lint:blockok replication hook: the guard runs inside the space's critical section by contract (epoch fencing must observe mutation order), and the replicated guard ships over RPC
func (s *Space) checkGuardLocked() error {
	if s.guard == nil {
		return nil
	}
	return s.guard()
}

// journalBatchLocked appends records as one journal group commit — one
// ship to the backup on a replicated space — encoding them into one
// buffer (see codec.go). Callers hold s.mu, which serializes journal
// order with memory order. An error means none of the records is durable:
// the caller must not apply them (the underlying log fails stop, so no
// partial batch is ever acknowledged). A volatile space journals nothing.
func (s *Space) journalBatchLocked(recs []record) error {
	if s.journal == nil || len(recs) == 0 {
		return nil
	}
	buf := make([]byte, 0, 64*len(recs))
	payloads := make([][]byte, len(recs))
	for i := range recs {
		start := len(buf)
		buf = appendRecord(buf, &recs[i])
		// A reslice of buf's current array stays valid when a later
		// append moves buf: nothing writes to the old array again.
		payloads[i] = buf[start:len(buf):len(buf)]
	}
	if _, err := s.journal.AppendBatch(payloads); err != nil {
		return fmt.Errorf("space: journaling batch of %d: %w", len(recs), err)
	}
	return nil
}

// Recover opens a durable tuple space backed by log: it loads the latest
// snapshot, replays the records after it, and attaches the log so every
// subsequent mutation is journaled before it is acknowledged.
//
// Replay restores exactly the acknowledged state, under three invariants
// the crash-recovery chaos suite asserts:
//
//   - no acked write is lost: a Write that returned nil is present after
//     recovery (until taken or expired);
//   - no entry is taken twice: an acked Take is durable, so the entry
//     cannot reappear;
//   - no aborted transaction is resurrected: staged writes of aborted —
//     or unresolved, i.e. in flight at the crash — transactions are
//     dropped, and their staged takes are restored.
//
// Entry leases are rebased onto the recovery clock: an entry written with
// lease duration d (or holding d-remaining at the last checkpoint) gets a
// fresh grant of d from now. Rebasing is conservative — recovery never
// shortens a lease below what was promised, it restarts it.
func Recover(clock clockwork.Clock, policy lease.Policy, log Journal) (*Space, error) {
	s := New(clock, policy)
	// staged holds every live entry as its write record: txn is the
	// staging transaction and taken the one holding a provisional take.
	staged := make(map[uint64]*record)
	var order []uint64 // ids in first-seen order, for deterministic FIFO
	maxID := uint64(0)
	note := func(id uint64) {
		if id > maxID {
			maxID = id
		}
	}

	if data, _, _, ok := log.Snapshot(); ok {
		nextID, entries, err := decodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		note(nextID)
		for _, r := range entries {
			staged[r.id] = r
			order = append(order, r.id)
			note(r.id)
		}
	}

	err := log.Replay(func(_ uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		switch rec.op {
		case opWrite:
			staged[rec.id] = &rec
			order = append(order, rec.id)
			note(rec.id)
		case opTake:
			// An untagged take of an id never written here is an entry
			// taken in the commit that wrote it: only its id is consumed.
			if rec.txn == 0 {
				delete(staged, rec.id)
			} else if r, ok := staged[rec.id]; ok {
				r.taken = rec.txn
			}
			note(rec.id)
		case opExpire:
			delete(staged, rec.id)
			note(rec.id)
		case opCommit:
			for id, r := range staged {
				if r.txn == rec.txn {
					r.txn = 0
				}
				if r.taken == rec.txn {
					delete(staged, id)
				}
			}
		case opAbort:
			for id, r := range staged {
				if r.txn == rec.txn {
					delete(staged, id)
				}
				if r.taken == rec.txn {
					r.taken = 0
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Resolve transactions that were in flight at the crash: their commit
	// record is missing, so they abort — staged writes vanish, staged
	// takes are restored.
	for id, r := range staged {
		if r.txn != 0 {
			delete(staged, id)
		}
	}

	for _, id := range order {
		r, ok := staged[id]
		if !ok || s.entries[id] != nil {
			continue
		}
		lse := s.leases.Grant(time.Duration(r.leaseMS) * time.Millisecond)
		se := &storedEntry{id: id, entry: r.entry, leaseID: lse.ID}
		s.entries[id] = se
		s.byLease[lse.ID] = id
		s.indexAddLocked(se)
	}
	s.nextID = maxID
	s.journal = log
	return s, nil
}

// Checkpoint writes a snapshot of the space's durable state to the journal
// and compacts it, bounding recovery time. Transaction staging tags are
// included, so a checkpoint taken mid-transaction still aborts correctly
// if the commit record never lands. Each entry's lease is recorded as the
// time remaining, rebased onto the recovery clock. Volatile spaces return
// nil.
func (s *Space) Checkpoint() error {
	if s.journal == nil {
		return nil
	}
	s.leases.Sweep()
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	entries := make([]record, 0, len(s.entries))
	for _, se := range s.entries {
		exp, ok := s.leases.Expiration(se.leaseID)
		if !ok {
			continue // lapsed but not yet swept
		}
		entries = append(entries, record{
			op: opWrite, id: se.id, txn: se.writtenTxn, taken: se.takenTxn,
			entry: se.entry, leaseMS: int64(exp.Sub(now) / time.Millisecond),
		})
	}
	if err := s.journal.WriteSnapshot(appendSnapshot(nil, s.nextID, entries)); err != nil {
		return fmt.Errorf("space: checkpoint: %w", err)
	}
	return nil
}
