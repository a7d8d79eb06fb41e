package space

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

// memJournal is an in-memory Journal that counts group commits and can be
// told to fail them.
type memJournal struct {
	mu      sync.Mutex
	batches [][][]byte
	snap    []byte
	fail    error
}

func (j *memJournal) AppendBatch(payloads [][]byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return 0, j.fail
	}
	j.batches = append(j.batches, payloads)
	return uint64(len(j.batches)), nil
}

func (j *memJournal) WriteSnapshot(data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.snap, j.batches = data, nil
	return nil
}

func (j *memJournal) Snapshot() ([]byte, uint64, time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap, 0, time.Time{}, j.snap != nil
}

func (j *memJournal) Replay(fn func(seq uint64, payload []byte) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := uint64(0)
	for _, b := range j.batches {
		for _, p := range b {
			seq++
			if err := fn(seq, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *memJournal) setFail(err error) {
	j.mu.Lock()
	j.fail = err
	j.mu.Unlock()
}

// journaledSpace is a durable space over a memJournal on a fake clock.
func journaledSpace(t *testing.T) (*clockwork.Fake, *Space, *memJournal) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	j := &memJournal{}
	s, err := Recover(fc, lease.Policy{Max: time.Hour}, j)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return fc, s, j
}

// waitQueued blocks until kind has n blocked waiters.
func waitQueued(t *testing.T, s *Space, kind string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		got := len(s.waitq[kind])
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters queued on %q, want %d", got, kind, n)
		}
		time.Sleep(time.Millisecond)
	}
}

type takeResult struct {
	out []Entry
	err error
}

// goTakeAny starts a blocking TakeAny and waits until it is queued
// behind the queued waiters already on the kind.
func goTakeAny(t *testing.T, s *Space, max int, tx *txn.Transaction, queued int) <-chan takeResult {
	t.Helper()
	done := make(chan takeResult, 1)
	go func() {
		out, err := s.TakeAny(NewEntry("ExertionEnvelope"), max, tx, Forever)
		done <- takeResult{out, err}
	}()
	waitQueued(t, s, "ExertionEnvelope", queued+1)
	return done
}

func batchOf(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = task("avg", i)
	}
	return es
}

func TestTakeAnyHandedWholeBatchInOneCommit(t *testing.T) {
	_, s, j := journaledSpace(t)
	done := goTakeAny(t, s, 8, nil, 0)
	if _, err := s.WriteBatch(batchOf(8), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || len(r.out) != 8 {
		t.Fatalf("TakeAny = %d entries, %v; want all 8 in one call", len(r.out), r.err)
	}
	for i, e := range r.out {
		if e.Field("n") != i {
			t.Fatalf("entry %d has n=%v (FIFO order lost)", i, e.Field("n"))
		}
	}
	if len(j.batches) != 1 || len(j.batches[0]) != 8 {
		t.Fatalf("journal saw %d batches (first of %d records), want one of 8 takes",
			len(j.batches), len(j.batches[0]))
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after the hand-off, want 0", n)
	}
}

func TestHandoffJournalFailureKeepsWaiterBlocked(t *testing.T) {
	_, s, j := journaledSpace(t)
	done := goTakeAny(t, s, 8, nil, 0)
	j.setFail(errors.New("disk gone"))
	if _, err := s.WriteBatch(batchOf(3), nil, time.Minute); err == nil {
		t.Fatal("write acked despite a failed journal")
	}
	waitQueued(t, s, "ExertionEnvelope", 1)
	select {
	case r := <-done:
		t.Fatalf("waiter served by an unjournaled write: %d entries, %v", len(r.out), r.err)
	default:
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after a failed write, want 0", n)
	}
	j.setFail(nil)
	if _, err := s.Write(task("later", 9), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || len(r.out) != 1 || r.out[0].Field("n") != 9 {
		t.Fatalf("after a good write the waiter got %v, %v", r.out, r.err)
	}
}

// TestHandoffFIFOAcrossWaiters: waiters are served in arrival order, each
// taking what it asked for before the next is considered.
func TestHandoffFIFOAcrossWaiters(t *testing.T) {
	_, s := newSpace(t)
	taken := make(chan Entry, 1)
	go func() {
		e, _ := s.Take(NewEntry("ExertionEnvelope"), nil, Forever)
		taken <- e
	}()
	waitQueued(t, s, "ExertionEnvelope", 1)
	rest := goTakeAny(t, s, 4, nil, 1)
	if _, err := s.WriteBatch(batchOf(3), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if e := <-taken; e.Field("n") != 0 {
		t.Fatalf("Take waiter got n=%v, want 0", e.Field("n"))
	}
	if r := <-rest; r.err != nil || len(r.out) != 2 || r.out[0].Field("n") != 1 || r.out[1].Field("n") != 2 {
		t.Fatalf("TakeAny(4) waiter got %v, %v; want entries 1 and 2", r.out, r.err)
	}
}

func TestHandoffTxnWaiterRestoredOnAbort(t *testing.T) {
	fc, s, _ := journaledSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	done := goTakeAny(t, s, 1, tx, 0)
	if _, err := s.Write(task("avg", 1), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || len(r.out) != 1 {
		t.Fatalf("txn waiter got %v, %v", r.out, r.err)
	}
	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("entry handed to a txn waiter still visible outside it (err=%v)", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); err != nil || e.Field("n") != 1 {
		t.Fatalf("abort did not restore the handed-off entry: %v, %v", e, err)
	}
}

// TestProvisionalTakeReturnsClone pins the one take that must still copy:
// a transactional take leaves the entry stored for Abort to restore, so
// the taker's mutations must not reach it.
func TestProvisionalTakeReturnsClone(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	s.Write(task("avg", 1), nil, time.Minute)
	tx, _ := tm.Create(time.Minute)
	e, err := s.Take(NewEntry("ExertionEnvelope"), tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Fields["n"] = 99
	e.Fields["extra"] = true
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Field("n") != 1 || got.Field("extra") != nil || len(got.Fields) != 2 {
		t.Fatalf("restored entry carries the taker's mutations: %v", got.Fields)
	}
}

// journalRecords decodes every record the journal holds, in order.
func journalRecords(t *testing.T, j *memJournal) []record {
	t.Helper()
	var recs []record
	if err := j.Replay(func(_ uint64, p []byte) error {
		r, err := decodeRecord(p)
		recs = append(recs, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// recoverFrom restarts a space from j, as a crash at this point would.
func recoverFrom(t *testing.T, fc *clockwork.Fake, j *memJournal) *Space {
	t.Helper()
	s, err := Recover(fc, lease.Policy{Max: time.Hour}, j)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestTakenInItsCommitRecoversEmpty: entries a blocked taker gets in the
// commit that writes them are journaled as their takes alone. Replay
// restores none of them, and their ids stay consumed.
func TestTakenInItsCommitRecoversEmpty(t *testing.T) {
	fc, s, j := journaledSpace(t)
	done := goTakeAny(t, s, 8, nil, 0)
	if _, err := s.WriteBatch(batchOf(3), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || len(r.out) != 3 {
		t.Fatalf("TakeAny = %v, %v; want 3 entries", r.out, r.err)
	}
	for _, r := range journalRecords(t, j) {
		if r.op != opTake || r.txn != 0 {
			t.Fatalf("journal holds %+v, want untagged takes only", r)
		}
	}
	re := recoverFrom(t, fc, j)
	if n := re.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("recovered %d entries from a take-only log, want 0", n)
	}
	if _, err := re.Write(task("next", 9), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if se := re.entries[4]; se == nil || se.entry.Field("n") != 9 {
		t.Fatalf("first write after recovery did not get id 4 (ids 1-3 are consumed): %v", re.entries)
	}
}

// TestHandoffUnderTxnKeepsWriteRecord: a hand-off with a transaction on
// either side journals the write record, since replay needs it.
func TestHandoffUnderTxnKeepsWriteRecord(t *testing.T) {
	t.Run("staged write, plain taker", func(t *testing.T) {
		fc, s, j := journaledSpace(t)
		tx, _ := txn.NewManager(fc, lease.Policy{Max: time.Hour}).Create(time.Minute)
		if _, err := s.Write(task("avg", 1), tx, time.Minute); err != nil {
			t.Fatal(err)
		}
		done := goTakeAny(t, s, 1, nil, 0)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if r := <-done; r.err != nil || len(r.out) != 1 {
			t.Fatalf("taker got %v, %v", r.out, r.err)
		}
		recs := journalRecords(t, j)
		if len(recs) != 3 || recs[0].op != opWrite || recs[0].txn != tx.ID() || recs[1].op != opCommit || recs[2].op != opTake {
			t.Fatalf("journal = %+v, want the staged write, its commit and the take", recs)
		}
		if n := recoverFrom(t, fc, j).Count(NewEntry("ExertionEnvelope")); n != 0 {
			t.Fatalf("recovered %d entries, want 0", n)
		}
	})
	t.Run("plain write, txn taker", func(t *testing.T) {
		fc, s, j := journaledSpace(t)
		tx, _ := txn.NewManager(fc, lease.Policy{Max: time.Hour}).Create(time.Minute)
		done := goTakeAny(t, s, 1, tx, 0)
		if _, err := s.Write(task("avg", 1), nil, time.Minute); err != nil {
			t.Fatal(err)
		}
		if r := <-done; r.err != nil || len(r.out) != 1 {
			t.Fatalf("taker got %v, %v", r.out, r.err)
		}
		recs := journalRecords(t, j)
		if len(recs) != 2 || recs[0].op != opWrite || recs[1].op != opTake || recs[1].txn != tx.ID() {
			t.Fatalf("journal = %+v, want the write and the provisional take", recs)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		e, err := recoverFrom(t, fc, j).Read(NewEntry("ExertionEnvelope"), nil, 0)
		if err != nil || e.Field("signature") != "avg" {
			t.Fatalf("aborted take not restored after recovery: %v, %v", e, err)
		}
	})
}

// TestHandoffServesReaderAndTaker: one write serves a blocked reader and
// a blocked taker. The reader gets a clone, and the journal holds the
// take alone.
func TestHandoffServesReaderAndTaker(t *testing.T) {
	_, s, j := journaledSpace(t)
	read := make(chan Entry, 1)
	go func() {
		e, _ := s.Read(NewEntry("ExertionEnvelope"), nil, Forever)
		read <- e
	}()
	waitQueued(t, s, "ExertionEnvelope", 1)
	done := goTakeAny(t, s, 1, nil, 1)
	if _, err := s.Write(task("avg", 1), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || len(r.out) != 1 || r.out[0].Field("n") != 1 {
		t.Fatalf("taker got %v, %v", r.out, r.err)
	}
	seen := <-read
	r.out[0].Fields["n"] = 99
	if seen.Field("n") != 1 {
		t.Fatalf("reader's entry changed with the taker's: n=%v", seen.Field("n"))
	}
	if recs := journalRecords(t, j); len(j.batches) != 1 || len(recs) != 1 || recs[0].op != opTake || recs[0].txn != 0 {
		t.Fatalf("journal = %+v in %d batches, want one untagged take", recs, len(j.batches))
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after the take, want 0", n)
	}
}
