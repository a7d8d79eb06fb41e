package repl

import "time"

// shippingJournal is the space.Journal a replicated primary writes
// through: every append lands in the local WAL and is then shipped to
// the attached backup under the current epoch, so the space's
// journal-before-ack becomes replicated-journal-before-ack. The space
// calls these inside its critical section, which makes journal order,
// ship order and memory order one and the same.
//
// The log handle is captured at creation (one journal per
// promotion/recovery), so reads never race a Restart swapping n.log.
type shippingJournal struct {
	node *Node
	log  logBackend
}

// logBackend is the slice of *wal.Log the journal uses (narrowed for
// clarity; *wal.Log satisfies it).
type logBackend interface {
	AppendBatch(payloads [][]byte) (uint64, error)
	WriteSnapshot(data []byte) error
	Snapshot() (data []byte, seq uint64, taken time.Time, ok bool)
	Replay(fn func(seq uint64, payload []byte) error) error
	SnapshotSeq() uint64
}

// AppendBatch journals a batch locally and ships it as one unit. A ship
// failure suspends (or, on a stale epoch, fences) the node and returns
// an error — the batch is in the local log but never acknowledged,
// which replay treats like any op in flight at a crash: indeterminate,
// resolved by the at-least-once envelope above.
func (j *shippingJournal) AppendBatch(payloads [][]byte) (uint64, error) {
	epoch, f, err := j.node.requireEpochPrimary()
	if err != nil {
		return 0, err
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	first, err := j.log.AppendBatch(payloads)
	if err != nil {
		return 0, err
	}
	if f != nil {
		if _, serr := f.ShipBatch(epoch, first, payloads); serr != nil {
			return 0, j.node.shipFailed(serr)
		}
	}
	return first, nil
}

// WriteSnapshot checkpoints the local log and ships the same snapshot
// to the backup, keeping both logs compacted in lockstep.
func (j *shippingJournal) WriteSnapshot(data []byte) error {
	epoch, f, err := j.node.requireEpochCheckpoint()
	if err != nil {
		return err
	}
	if err := j.log.WriteSnapshot(data); err != nil {
		return err
	}
	if f != nil {
		if serr := f.ShipSnapshot(epoch, j.log.SnapshotSeq(), data); serr != nil {
			return j.node.shipFailed(serr)
		}
	}
	return nil
}

// Snapshot reads the local snapshot (recovery path; no replication).
func (j *shippingJournal) Snapshot() (data []byte, seq uint64, taken time.Time, ok bool) {
	return j.log.Snapshot()
}

// Replay streams the local log (recovery path; no replication).
func (j *shippingJournal) Replay(fn func(seq uint64, payload []byte) error) error {
	return j.log.Replay(fn)
}
