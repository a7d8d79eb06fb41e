package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
)

// collect replays the log into a slice of (seq, payload).
func collect(t *testing.T, l *Log) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

// segmentCount reports how many segment files l spans.
func segmentCount(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re)
	if len(seqs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, seqs[i], payloads[i], i+1, want[i])
		}
	}
	if re.NextSeq() != uint64(len(want)+1) {
		t.Fatalf("NextSeq = %d, want %d", re.NextSeq(), len(want)+1)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSegmentLimit(64), WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if n := segmentCount(l); n < 3 {
		t.Fatalf("segments = %d, want >= 3", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, _ := collect(t, re)
	if len(seqs) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(seqs))
	}
}

// TestTornTailTruncatedAtRandomOffsets simulates a crash mid-write by
// truncating the final segment at every possible byte offset within the
// last record's frame: recovery must always keep exactly the acked prefix.
func TestTornTailTruncatedAtRandomOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		seg := filepath.Join(dir, segName(1))
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Cut somewhere inside the final record's frame.
		frameLen := int64(headerSize + len("intact-0"))
		cut := info.Size() - 1 - rng.Int63n(frameLen-1)
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}

		re, err := Open(dir)
		if err != nil {
			t.Fatalf("trial %d: reopen after tear: %v", trial, err)
		}
		seqs, _ := collect(t, re)
		if len(seqs) != n-1 {
			t.Fatalf("trial %d: %d records after tear at %d, want %d", trial, len(seqs), cut, n-1)
		}
		// The log must be appendable after truncation.
		if _, err := re.Append([]byte("after-recovery")); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		re2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		seqs2, payloads := collect(t, re2)
		if len(seqs2) != n || !bytes.Equal(payloads[len(payloads)-1], []byte("after-recovery")) {
			t.Fatalf("trial %d: post-recovery append not replayed", trial)
		}
		if err := re2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptionBeforeTailIsRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSegmentLimit(32), WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte("0123456789abcdefghij")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST segment: not a torn tail, corruption.
	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	clock := clockwork.NewFake(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	l, err := Open(dir, WithClock(clock), WithSegmentLimit(64), WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("pre-snap-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := segmentCount(l)
	if err := l.WriteSnapshot([]byte("state@12")); err != nil {
		t.Fatal(err)
	}
	if n := segmentCount(l); n >= segsBefore {
		t.Fatalf("segments after compaction = %d, want < %d", n, segsBefore)
	}
	if _, err := l.Append([]byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	data, seq, taken, ok := re.Snapshot()
	if !ok || string(data) != "state@12" || seq != 12 {
		t.Fatalf("snapshot = (%q, %d, %v), want (state@12, 12, true)", data, seq, ok)
	}
	if !taken.Equal(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)) {
		t.Fatalf("snapshot time = %v", taken)
	}
	seqs, payloads := collect(t, re)
	if len(seqs) != 1 || seqs[0] != 13 || string(payloads[0]) != "post-snap" {
		t.Fatalf("post-snapshot replay = %v %q", seqs, payloads)
	}
}

func TestSecondSnapshotReplacesFirst(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("two")); err != nil {
		t.Fatal(err)
	}
	data, seq, _, ok := l.Snapshot()
	if !ok || string(data) != "two" || seq != 2 {
		t.Fatalf("snapshot = (%q, %d)", data, seq)
	}
	snaps, err := l.listFiles(snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshot files on disk = %v, want just the latest", snaps)
	}
}

func TestInjectedAppendFaultFailsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(7, clockwork.Real())
	inj.Set("log"+FaultSiteAppend, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "log")
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append = %v, want ErrInjected", err)
	}
	// The log now behaves like a dead process.
	l.SetFaultInjector(nil, "")
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure = %v, want ErrFailed", err)
	}
	_ = l.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re)
	if len(seqs) != 1 || string(payloads[0]) != "acked" {
		t.Fatalf("recovered %v %q, want only the acked record", seqs, payloads)
	}
}

func TestTornWriteLeavesPartialFrameRecoveryDropsIt(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("before-crash")); err != nil {
			t.Fatal(err)
		}
		inj := faults.New(seed, clockwork.Real())
		inj.Set("log"+FaultSiteAppend, faults.Rule{ErrorRate: 1})
		l.SetFaultInjector(inj, "log")
		l.ArmTornWrites(seed)
		if _, err := l.Append([]byte("torn-mid-write")); err == nil {
			t.Fatal("torn append reported success")
		}
		_ = l.Close()

		re, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen over torn frame: %v", seed, err)
		}
		seqs, payloads := collect(t, re)
		if len(seqs) != 1 || string(payloads[0]) != "before-crash" {
			t.Fatalf("seed %d: recovered %v %q", seed, seqs, payloads)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInjectedSyncFaultFailsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(3, clockwork.Real())
	inj.Set("log"+FaultSiteSync, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "log")
	if _, err := l.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("sync = %v, want ErrInjected", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after sync failure = %v, want ErrFailed", err)
	}
	_ = l.Close()
}

func TestInjectedSnapshotFaultLeavesLogUsable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(5, clockwork.Real())
	inj.Set("log"+FaultSiteSnapshot, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "log")
	if err := l.WriteSnapshot([]byte("doomed")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("snapshot = %v, want ErrInjected", err)
	}
	// Unlike append/sync, a failed snapshot is recoverable: the log and
	// its segments are intact.
	l.SetFaultInjector(nil, "")
	if _, err := l.Append([]byte("still-alive")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := l.Snapshot(); ok {
		t.Fatal("failed snapshot must not be visible")
	}
}

func TestClosedLogRefusesOps(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close = %v, want nil", err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed = %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed = %v", err)
	}
	if err := l.WriteSnapshot(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot on closed = %v", err)
	}
}

func TestEmptyLogReplaysNothing(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seqs, _ := collect(t, l)
	if len(seqs) != 0 {
		t.Fatalf("empty log replayed %v", seqs)
	}
	if l.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d, want 1", l.NextSeq())
	}
}

// TestSnapshotOnEmptyActiveSegment pins a compaction hazard: a snapshot
// taken while the active segment holds no records (e.g. two checkpoints
// in a row, or a checkpoint as the very first operation) must not rotate
// into a segment with the same name and then unlink the live file out
// from under the append handle — records written afterwards would land
// in an orphaned inode and vanish on reopen.
func TestSnapshotOnEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot an empty log, then again with still no appends in between.
	if err := l.WriteSnapshot([]byte("s0")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("s1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	// And the mixed shape: append, snapshot (rotates), snapshot again
	// while the fresh segment is empty, then append.
	if err := l.WriteSnapshot([]byte("s2")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot([]byte("s3")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	data, _, _, ok := re.Snapshot()
	if !ok || string(data) != "s3" {
		t.Fatalf("snapshot = %q, %v; want s3", data, ok)
	}
	_, payloads := collect(t, re)
	if len(payloads) != 1 || string(payloads[0]) != "tail" {
		t.Fatalf("replayed %q, want [tail]", payloads)
	}
}
