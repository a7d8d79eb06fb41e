package wal

import (
	"errors"
	"sync"
	"testing"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
)

// appendConcurrently runs workers goroutines appending count records each,
// returning per-call errors and the set of acknowledged sequences.
func appendConcurrently(l *Log, workers, count int) (acked map[uint64]bool, errs []error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	acked = make(map[uint64]bool)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < count; i++ {
				seq, err := l.Append([]byte("group-commit-record"))
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					if acked[seq] {
						errs = append(errs, errors.New("duplicate sequence acked"))
					}
					acked[seq] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return acked, errs
}

func TestGroupCommitConcurrentAppendsAllDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	acked, errs := appendConcurrently(l, 8, 50)
	for _, err := range errs {
		t.Fatalf("append: %v", err)
	}
	if len(acked) != 400 {
		t.Fatalf("acked %d records, want 400", len(acked))
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
	if len(seqs) != 400 {
		t.Fatalf("replayed %d records, want 400", len(seqs))
	}
	for _, seq := range seqs {
		if !acked[seq] {
			t.Fatalf("replayed sequence %d was never acked", seq)
		}
	}
}

// TestGroupCommitBatchBoundsAck checks that appenders taking turns on one
// synced log, one fsync each, replay exactly the records they were acked.
func TestGroupCommitBatchBoundsAck(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	acked, errs := appendConcurrently(l, 4, 10)
	for _, err := range errs {
		t.Fatalf("append: %v", err)
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
	if len(seqs) != len(acked) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(acked))
	}
}

// TestGroupCommitLingerStillAcksEverything checks that no append waits on
// another: eight appenders on one synced log are all acknowledged, and
// every acknowledged record replays.
func TestGroupCommitLingerStillAcksEverything(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	acked, errs := appendConcurrently(l, 8, 20)
	for _, err := range errs {
		t.Fatalf("append: %v", err)
	}
	if len(acked) != 160 {
		t.Fatalf("acked %d records, want 160", len(acked))
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
	if len(seqs) != 160 {
		t.Fatalf("replayed %d records, want 160", len(seqs))
	}
}

// TestGroupCommitSyncFaultFailsWholeBatch injects an fsync failure while
// concurrent appenders take turns: no append may be acknowledged by a sync
// that never happened, and the log fails for everyone.
func TestGroupCommitSyncFaultFailsWholeBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(11, clockwork.Real())
	inj.Set("log"+FaultSiteSync, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "log")

	acked, errs := appendConcurrently(l, 8, 5)
	if len(acked) != 0 {
		t.Fatalf("acked %d records past a failed fsync, want 0", len(acked))
	}
	if len(errs) != 40 {
		t.Fatalf("got %d errors, want 40", len(errs))
	}
	sawInjected := false
	for _, err := range errs {
		if errors.Is(err, faults.ErrInjected) {
			sawInjected = true
		} else if !errors.Is(err, ErrFailed) {
			t.Fatalf("append error = %v, want injected fault or ErrFailed", err)
		}
	}
	if !sawInjected {
		t.Fatal("no appender observed the injected sync fault")
	}
	_ = l.Close()

	// The crashed log reopens cleanly; unacked records may or may not have
	// reached disk, but replay must be a valid prefix (no corruption).
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("replay after failed batch: %v", err)
	}
}

// TestGroupCommitSnapshotWaitsForInflightSync hammers WriteSnapshot against
// concurrent durable appends: compaction rotates the active file, so it must
// serialize with each append's fsync under the log's lock.
func TestGroupCommitSnapshotWaitsForInflightSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSegmentLimit(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.WriteSnapshot([]byte("state"))
			}
		}
	}()
	_, errs := appendConcurrently(l, 4, 25)
	close(stop)
	wg.Wait()
	for _, err := range errs {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after snapshot/append race: %v", err)
	}
	_ = re.Close()
}
