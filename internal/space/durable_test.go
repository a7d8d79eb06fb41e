package space

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
	"sensorcer/internal/wal"
)

// openLog opens a WAL in dir with fsync disabled (these tests crash by
// reopening the directory, not by killing the process, so the page cache
// is always intact — syncing would only slow the suite down).
func openLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// durableSpace recovers a space from dir on a fresh fake clock.
func durableSpace(t *testing.T, dir string) (*clockwork.Fake, *Space, *wal.Log) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	l := openLog(t, dir)
	s, err := Recover(fc, lease.Policy{Max: time.Hour}, l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		_ = l.Close()
	})
	return fc, s, l
}

// envelope builds a durable-friendly entry: JSON round-trips float64s and
// strings losslessly, so templates keep matching after recovery.
func envelope(sig string, n float64) Entry {
	return NewEntry("ExertionEnvelope", "signature", sig, "n", n)
}

func TestRecoverEmptyLogYieldsUsableSpace(t *testing.T) {
	_, s, _ := durableSpace(t, t.TempDir())
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("fresh recovered space has %d entries", n)
	}
	if _, err := s.Write(envelope("avg", 1), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 1 {
		t.Fatalf("Count = %d after write", n)
	}
}

func TestAckedWritesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, s, l := durableSpace(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := s.Write(envelope("avg", float64(i)), nil, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, re, _ := durableSpace(t, dir)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 5 {
		t.Fatalf("recovered %d entries, want 5", n)
	}
	// FIFO order survives: takes drain in original write order.
	var got []float64
	for i := 0; i < 5; i++ {
		e, err := re.Take(NewEntry("ExertionEnvelope"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e.Field("n").(float64))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("recovered takes out of write order: %v", got)
	}
}

func TestTakenEntryNotResurrected(t *testing.T) {
	dir := t.TempDir()
	_, s, l := durableSpace(t, dir)
	s.Write(envelope("avg", 1), nil, time.Minute)
	s.Write(envelope("max", 2), nil, time.Minute)
	if _, err := s.Take(NewEntry("ExertionEnvelope", "signature", "avg"), nil, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Take(NewEntry("ExertionEnvelope", "signature", "avg"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("taken entry resurrected after restart (err=%v)", err)
	}
	if _, err := re.Take(NewEntry("ExertionEnvelope", "signature", "max"), nil, 0); err != nil {
		t.Fatalf("untaken entry lost: %v", err)
	}
}

// TestUnresolvedTxnAbortsOnReplay crashes a space mid-transaction — after
// the staged write and take landed, before any commit record — and checks
// recovery resolves the transaction by aborting: the staged write
// vanishes, the provisional take is restored.
func TestUnresolvedTxnAbortsOnReplay(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("preexisting", 1), nil, time.Minute)

	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	if _, err := s.Write(envelope("staged", 2), tx, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Take(NewEntry("ExertionEnvelope", "signature", "preexisting"), tx, 0); err != nil {
		t.Fatal(err)
	}
	// Crash: no commit, no abort.
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unresolved txn's staged write resurrected (err=%v)", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "preexisting"), nil, 0); err != nil {
		t.Fatalf("unresolved txn's provisional take not restored: %v", err)
	}
}

func TestCommittedTxnSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("victim", 1), nil, time.Minute)

	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(envelope("staged", 2), tx, time.Minute)
	s.Take(NewEntry("ExertionEnvelope", "signature", "victim"), tx, 0)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); err != nil {
		t.Fatalf("committed write lost: %v", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "victim"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("committed take resurrected (err=%v)", err)
	}
}

func TestAbortedTxnNotResurrected(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("victim", 1), nil, time.Minute)

	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(envelope("staged", 2), tx, time.Minute)
	s.Take(NewEntry("ExertionEnvelope", "signature", "victim"), tx, 0)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("aborted write resurrected (err=%v)", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "victim"), nil, 0); err != nil {
		t.Fatalf("aborted take not restored: %v", err)
	}
}

// TestTxnLeaseExpiryAbortsMidTransaction expires a transaction's lease
// while it holds a staged write and a provisional take: the manager's
// sweep aborts it, the abort is journaled, and a restart agrees — the
// staged write stays dead and the take stays restored.
func TestTxnLeaseExpiryAbortsMidTransaction(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("victim", 1), nil, time.Hour)

	tm := txn.NewManager(fc, lease.Policy{Max: time.Minute})
	tx, _ := tm.Create(time.Minute)
	s.Write(envelope("staged", 2), tx, time.Hour)
	s.Take(NewEntry("ExertionEnvelope", "signature", "victim"), tx, 0)

	// The transaction's owner dies: no renewals, the lease lapses, the
	// manager aborts mid-transaction.
	fc.Advance(2 * time.Minute)
	tm.Sweep()
	if _, err := s.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired txn's staged write still visible (err=%v)", err)
	}
	if _, err := s.Read(NewEntry("ExertionEnvelope", "signature", "victim"), nil, 0); err != nil {
		t.Fatalf("expired txn's take not restored: %v", err)
	}

	s.Close()
	_ = l.Close()
	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired txn's staged write resurrected after restart (err=%v)", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "victim"), nil, 0); err != nil {
		t.Fatalf("expired txn's restored take lost after restart: %v", err)
	}
}

// TestTornCommitRecordAbortsTxn chops the tail off the journal's final
// record — the commit — simulating a crash mid-commit-write. With the
// commit record gone, replay must abort the transaction.
func TestTornCommitRecordAbortsTxn(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(envelope("staged", 1), tx, time.Minute)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_ = l.Close()

	// Tear the last record (the commit) by truncating a few bytes.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("txn with torn commit record resurrected its write (err=%v)", err)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	_, s, l := durableSpace(t, dir)
	for i := 0; i < 50; i++ {
		s.Write(envelope("avg", float64(i)), nil, time.Minute)
	}
	if _, err := s.Take(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotSeq() == 0 {
		t.Fatal("checkpoint wrote no snapshot")
	}
	// Post-checkpoint traffic replays on top of the snapshot.
	s.Write(envelope("late", 1000), nil, time.Minute)
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 50 {
		t.Fatalf("recovered %d entries, want 50 (49 checkpointed + 1 late)", n)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "late"), nil, 0); err != nil {
		t.Fatalf("post-checkpoint write lost: %v", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "n", float64(0)), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("pre-checkpoint take resurrected (err=%v)", err)
	}
}

// TestCheckpointMidTxnStillAborts takes a checkpoint while a transaction
// is staged and never commits it: the snapshot carries the staging tags,
// so recovery must still abort the transaction.
func TestCheckpointMidTxnStillAborts(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("preexisting", 1), nil, time.Minute)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(envelope("staged", 2), tx, time.Minute)
	s.Take(NewEntry("ExertionEnvelope", "signature", "preexisting"), tx, 0)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "staged"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("checkpointed staged write resurrected (err=%v)", err)
	}
	if _, err := re.Read(NewEntry("ExertionEnvelope", "signature", "preexisting"), nil, 0); err != nil {
		t.Fatalf("checkpointed provisional take not restored: %v", err)
	}
}

func TestRecoveryRebasesLeases(t *testing.T) {
	dir := t.TempDir()
	_, s, l := durableSpace(t, dir)
	s.Write(envelope("avg", 1), nil, time.Minute)
	s.Close()
	_ = l.Close()

	// Recover on a clock far past the original expiration: the lease is
	// rebased, not compared against wall time, so the entry is alive.
	fc := clockwork.NewFake(epoch.Add(24 * time.Hour))
	rl := openLog(t, dir)
	re, err := Recover(fc, lease.Policy{Max: time.Hour}, rl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { re.Close(); _ = rl.Close() }()
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 1 {
		t.Fatalf("rebased entry absent, Count = %d", n)
	}
	// And it re-expires one rebased duration later.
	fc.Advance(2 * time.Minute)
	re.Sweep()
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("rebased lease never expires, Count = %d", n)
	}
}

func TestExpiredEntryStaysDeadAfterRestart(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("avg", 1), nil, time.Minute)
	fc.Advance(2 * time.Minute)
	s.Sweep() // journals the expire record
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("expired entry resurrected, Count = %d", n)
	}
}

// TestJournalFailureFailsWrite injects a WAL append fault: the write must
// fail (not be acked) and leave nothing behind — a record that is not
// durable must not be applied.
func TestJournalFailureFailsWrite(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	s.Write(envelope("before", 1), nil, time.Minute)

	inj := faults.New(1, fc)
	inj.Set(wal.FaultSiteAppend, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "")
	if _, err := s.Write(envelope("doomed", 2), nil, time.Minute); err == nil {
		t.Fatal("write acked despite journal failure")
	}
	// The failed log is fail-stop: later takes cannot journal, so the
	// surviving entry stays put rather than being removed undurably.
	if _, err := s.Take(NewEntry("ExertionEnvelope"), nil, 0); err == nil {
		t.Fatal("take succeeded without a durable record")
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 1 {
		t.Fatalf("Count = %d, want 1 (failed ops must not mutate)", n)
	}
}

// TestCancelJournalFailureIsReported: a holder's Cancel whose expire
// record cannot land returns the journal error and still drops the entry
// (its grant is gone); recovery restores it under a rebased lease, as for
// an expiry whose record was lost, and it expires again.
func TestCancelJournalFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	fc, s, l := durableSpace(t, dir)
	lse, err := s.Write(envelope("doomed", 1), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1, fc)
	inj.Set(wal.FaultSiteAppend, faults.Rule{ErrorRate: 1})
	l.SetFaultInjector(inj, "")
	if err := lse.Cancel(); err == nil {
		t.Fatal("Cancel reported no journal failure")
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after the cancel, want 0", n)
	}
	s.Close()
	_ = l.Close()

	fc2, re, _ := durableSpace(t, dir)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 1 {
		t.Fatalf("recovered Count = %d, want the entry back under a rebased lease", n)
	}
	fc2.Advance(2 * time.Minute)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after the rebased lease lapsed", n)
	}
}

// TestReplayedEntriesDoNotAliasJournalState pins the no-aliasing guarantee
// recovery depends on: mutating a field map the caller kept after Write
// must not leak into what a later recovery returns, and mutating a
// recovered entry's map must not corrupt the store.
func TestReplayedEntriesDoNotAliasJournalState(t *testing.T) {
	dir := t.TempDir()
	_, s, l := durableSpace(t, dir)
	e := envelope("avg", 1)
	if _, err := s.Write(e, nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	e.Fields["n"] = float64(999) // caller mutates after ack
	s.Close()
	_ = l.Close()

	_, re, _ := durableSpace(t, dir)
	got, err := re.Read(NewEntry("ExertionEnvelope"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Field("n") != float64(1) {
		t.Fatalf("recovered entry aliased caller mutation: n = %v", got.Field("n"))
	}
	got.Fields["n"] = float64(-5) // reader mutates their copy
	again, err := re.Read(NewEntry("ExertionEnvelope"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Field("n") != float64(1) {
		t.Fatalf("stored entry aliased reader mutation: n = %v", again.Field("n"))
	}
}
