package wal

// Follower-apply: the replication layer (internal/repl) ships journaled
// batches from a primary's log to a backup's, sequence numbers and all.
// The backup is not an independent appender — it must reproduce the
// primary's exact record stream — so it applies shipped records with
// AppendAt (idempotent at explicit sequences), catches up after a restart
// with ReplayFrom on the primary side, and resynchronizes past compaction
// with InstallSnapshot. Records are framed deterministically, and a segment
// rotates before the record that would carry it past the size limit — a
// rule that reads only the record stream, not the batching nor the sync
// setting. So a caught-up follower with the primary's segment
// limit has segment files byte-identical to the primary's, whether either
// log fsyncs each commit or not; the divergence tests assert exactly that.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Errors specific to follower apply and catch-up.
var (
	// ErrSeqGap reports an AppendAt whose first sequence lies beyond the
	// log's append position: applying it would leave a hole, so the
	// follower must catch up (ReplayFrom / InstallSnapshot) first.
	ErrSeqGap = errors.New("wal: sequence gap")
	// ErrCompacted reports a ReplayFrom position at or below the latest
	// snapshot: the records were compacted away, so the follower needs
	// the snapshot (InstallSnapshot) before the remaining records.
	ErrCompacted = errors.New("wal: records compacted away")
)

// AppendAt applies replicated records at explicit sequences: payloads[0]
// carries sequence firstSeq, and each further payload the next one. It is
// the follower half of log shipping, and it is idempotent — payloads whose
// sequence the log already holds are skipped byte-for-byte (the primary
// re-ships from a conservative position after reconnects), so applying the
// same batch twice is harmless. A batch starting beyond the log's append
// position is refused with ErrSeqGap; the caller must catch up first.
//
// Durability matches AppendBatch — the same commit: with per-append sync
// the call returns only after one fsync covers the whole batch, so a
// follower acknowledging a shipped batch promises the same crash-survival
// as the primary that sent it. Returns the log's next expected sequence.
func (l *Log) AppendAt(firstSeq uint64, payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if firstSeq > l.nextSeq {
		return 0, fmt.Errorf("%w: batch starts at %d, log expects %d", ErrSeqGap, firstSeq, l.nextSeq)
	}
	// Skip the prefix the log already holds.
	skip := l.nextSeq - firstSeq
	if skip >= uint64(len(payloads)) {
		if err := l.usableLocked(); err != nil {
			return 0, err
		}
		return l.nextSeq, nil
	}
	if err := l.commitLocked(payloads[skip:]); err != nil {
		return 0, err
	}
	return l.nextSeq, nil
}

// ReplayFrom streams every record with sequence >= from, in order, to fn —
// the primary half of follower catch-up. A position at or below the latest
// snapshot returns ErrCompacted: those records no longer exist as log
// entries, so the caller must ship the snapshot (InstallSnapshot on the
// follower) and retry from snapshot sequence + 1. A non-nil error from fn
// stops the replay and is returned.
func (l *Log) ReplayFrom(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if from <= l.snapSeq {
		snapSeq := l.snapSeq
		l.mu.Unlock()
		return fmt.Errorf("%w: position %d is covered by snapshot %d", ErrCompacted, from, snapSeq)
	}
	l.mu.Unlock()
	return l.Replay(func(seq uint64, payload []byte) error {
		if seq < from {
			return nil
		}
		return fn(seq, payload)
	})
}

// InstallSnapshot replaces the log's entire contents with a snapshot
// covering sequence seq, positioning the log to append at seq+1. It is the
// full-resync path: a follower whose log diverged from — or fell behind
// the compaction horizon of — its primary discards local history and
// restarts from the primary's snapshot.
//
// The local segments are deleted before the new snapshot is published, so
// a crash mid-install can only regress the log to an older (pre-install)
// state, never leave diverged records layered over the new snapshot; the
// follower simply resyncs again on restart.
//
//lint:blockok full resync: discarding segments and publishing the new snapshot must be atomic under l.mu; the fsyncs inside are the durability point
func (l *Log) InstallSnapshot(seq uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if l.file != nil {
		if err := l.file.Close(); err != nil {
			l.failLocked()
			return fmt.Errorf("wal: install snapshot: %w", err)
		}
		l.file = nil
	}
	for _, seg := range l.segs {
		if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			l.failLocked()
			return fmt.Errorf("wal: install snapshot: %w", err)
		}
	}
	l.segs = nil
	l.buf = l.buf[:0]

	now := l.clock.Now()
	payload := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint64(payload[:8], uint64(now.UnixNano()))
	copy(payload[8:], data)
	tmp := filepath.Join(l.dir, snapName(seq)+".tmp")
	final := filepath.Join(l.dir, snapName(seq))
	if err := writeFileSync(tmp, frameRecord(payload)); err != nil {
		l.failLocked()
		return fmt.Errorf("wal: staging snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		l.failLocked()
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		l.failLocked()
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if l.snapSeq > 0 && l.snapSeq != seq {
		_ = os.Remove(filepath.Join(l.dir, snapName(l.snapSeq)))
	}
	l.snapSeq = seq
	l.snapTime = now.UTC()
	l.snapData = append([]byte(nil), data...)
	l.nextSeq = seq + 1
	if err := l.startSegmentLocked(); err != nil {
		l.failLocked()
		return err
	}
	return nil
}
