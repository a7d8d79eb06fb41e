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
	if len(j.batches) != 1 || len(j.batches[0]) != 16 {
		t.Fatalf("journal saw %d batches (first of %d records), want one of 16 (8 writes, 8 takes)",
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
