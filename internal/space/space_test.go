package space

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newSpace(t *testing.T) (*clockwork.Fake, *Space) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	s := New(fc, lease.Policy{Max: time.Hour})
	t.Cleanup(s.Close)
	return fc, s
}

func task(name string, n int) Entry {
	return NewEntry("ExertionEnvelope", "signature", name, "n", n)
}

func TestWriteTakeRoundTrip(t *testing.T) {
	_, s := newSpace(t)
	if _, err := s.Write(task("avg", 1), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	e, err := s.Take(NewEntry("ExertionEnvelope", "signature", "avg"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Field("n") != 1 {
		t.Fatalf("payload = %v", e.Field("n"))
	}
	if s.Count(NewEntry("ExertionEnvelope")) != 0 {
		t.Fatal("take did not remove entry")
	}
}

func TestReadDoesNotRemove(t *testing.T) {
	_, s := newSpace(t)
	s.Write(task("avg", 1), nil, time.Minute)
	for i := 0; i < 3; i++ {
		if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count(NewEntry("ExertionEnvelope")) != 1 {
		t.Fatal("read removed the entry")
	}
}

func TestTemplateWildcardsAndMismatch(t *testing.T) {
	_, s := newSpace(t)
	s.Write(task("avg", 1), nil, time.Minute)
	if _, err := s.Take(NewEntry("ExertionEnvelope", "signature", "max"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mismatching take err = %v", err)
	}
	if _, err := s.Take(NewEntry("OtherKind"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("wrong-kind take err = %v", err)
	}
	// nil field value is an explicit wildcard.
	if _, err := s.Take(NewEntry("ExertionEnvelope", "signature", nil), nil, 0); err != nil {
		t.Fatalf("wildcard take err = %v", err)
	}
}

func TestFIFOOrderByWriteSequence(t *testing.T) {
	_, s := newSpace(t)
	for i := 1; i <= 3; i++ {
		s.Write(task("avg", i), nil, time.Minute)
	}
	for i := 1; i <= 3; i++ {
		e, err := s.Take(NewEntry("ExertionEnvelope"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if e.Field("n") != i {
			t.Fatalf("take %d returned n=%v", i, e.Field("n"))
		}
	}
}

func TestBlockingTakeServedByWrite(t *testing.T) {
	_, s := newSpace(t)
	got := make(chan Entry, 1)
	go func() {
		e, err := s.Take(NewEntry("ExertionEnvelope"), nil, Forever)
		if err == nil {
			got <- e
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the taker block
	s.Write(task("avg", 42), nil, time.Minute)
	select {
	case e := <-got:
		if e.Field("n") != 42 {
			t.Fatalf("got %v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked take never served")
	}
}

func TestBlockingTakeTimesOut(t *testing.T) {
	fc, s := newSpace(t)
	errs := make(chan error, 1)
	go func() {
		_, err := s.Take(NewEntry("ExertionEnvelope"), nil, time.Minute)
		errs <- err
	}()
	// Let the waiter enqueue, then advance past the timeout.
	time.Sleep(10 * time.Millisecond)
	fc.Advance(2 * time.Minute)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take never timed out")
	}
}

func TestEntryLeaseExpiryRemoves(t *testing.T) {
	fc, s := newSpace(t)
	s.Write(task("avg", 1), nil, time.Minute)
	fc.Advance(2 * time.Minute)
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("Count = %d after lease expiry", n)
	}
}

func TestOnlyOneTakerWins(t *testing.T) {
	// Real clock: losing takers must be released by their own timeouts.
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	t.Cleanup(s.Close)
	const takers = 16
	var wg sync.WaitGroup
	wins := make(chan Entry, takers)
	for i := 0; i < takers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, err := s.Take(NewEntry("ExertionEnvelope"), nil, 100*time.Millisecond); err == nil {
				wins <- e
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Write(task("avg", 7), nil, time.Minute)
	wg.Wait()
	close(wins)
	n := 0
	for range wins {
		n++
	}
	if n != 1 {
		t.Fatalf("%d takers won, want exactly 1", n)
	}
}

func TestTxnWriteInvisibleUntilCommit(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(task("avg", 1), tx, time.Minute)

	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatal("uncommitted write visible outside txn")
	}
	// Visible inside the writing txn.
	if _, err := s.Read(NewEntry("ExertionEnvelope"), tx, 0); err != nil {
		t.Fatalf("own write invisible: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
		t.Fatal("committed write not visible")
	}
}

func TestTxnWriteDiscardedOnAbort(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(task("avg", 1), tx, time.Minute)
	tx.Abort()
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("aborted write persisted, Count = %d", n)
	}
}

func TestTxnTakeRestoredOnAbort(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	s.Write(task("avg", 1), nil, time.Minute)
	tx, _ := tm.Create(time.Minute)
	if _, err := s.Take(NewEntry("ExertionEnvelope"), tx, 0); err != nil {
		t.Fatal(err)
	}
	// Invisible to others while held.
	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatal("provisionally taken entry still visible")
	}
	tx.Abort()
	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
		t.Fatal("aborted take did not restore entry")
	}
}

func TestTxnTakeFinalizedOnCommit(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	s.Write(task("avg", 1), nil, time.Minute)
	tx, _ := tm.Create(time.Minute)
	s.Take(NewEntry("ExertionEnvelope"), tx, 0)
	tx.Commit()
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("committed take left entry, Count = %d", n)
	}
}

func TestTxnWriteThenTakeSameTxn(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	tx, _ := tm.Create(time.Minute)
	s.Write(task("avg", 1), tx, time.Minute)
	if _, err := s.Take(NewEntry("ExertionEnvelope"), tx, 0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 0 {
		t.Fatalf("net-zero txn left entry, Count = %d", n)
	}
}

func TestTxnLeaseExpiryRestoresTake(t *testing.T) {
	// A federation that dies mid-exertion: its txn lease lapses and the
	// taken envelope returns to the space for another worker.
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Minute})
	s.Write(task("avg", 1), nil, time.Hour)
	tx, _ := tm.Create(time.Minute)
	s.Take(NewEntry("ExertionEnvelope"), tx, 0)
	fc.Advance(2 * time.Minute)
	tm.Sweep()
	if _, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
		t.Fatal("crashed worker's take was not restored")
	}
}

func TestCommittedWriteWakesBlockedTaker(t *testing.T) {
	fc, s := newSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	got := make(chan Entry, 1)
	go func() {
		if e, err := s.Take(NewEntry("ExertionEnvelope"), nil, Forever); err == nil {
			got <- e
		}
	}()
	time.Sleep(10 * time.Millisecond)
	tx, _ := tm.Create(time.Minute)
	s.Write(task("avg", 5), tx, time.Minute)
	time.Sleep(10 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("taker served before commit")
	default:
	}
	tx.Commit()
	select {
	case e := <-got:
		if e.Field("n") != 5 {
			t.Fatalf("got %v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("commit did not wake taker")
	}
}

func TestWriteValidation(t *testing.T) {
	_, s := newSpace(t)
	if _, err := s.Write(Entry{}, nil, time.Minute); err == nil {
		t.Fatal("kindless entry accepted")
	}
}

func TestCloseFailsBlockedAndNewOps(t *testing.T) {
	_, s := newSpace(t)
	errs := make(chan error, 1)
	go func() {
		_, err := s.Take(NewEntry("X"), nil, Forever)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked take err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked take not released by Close")
	}
	if _, err := s.Write(task("x", 1), nil, time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
	if _, err := s.Read(NewEntry("X"), nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v", err)
	}
	s.Close() // idempotent
}

func TestNonComparablePayloadNeverMatchesButCarries(t *testing.T) {
	_, s := newSpace(t)
	payload := []float64{1, 2, 3}
	s.Write(NewEntry("Data", "values", payload, "tag", "t1"), nil, time.Minute)
	e, err := s.Take(NewEntry("Data", "tag", "t1"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Field("values").([]float64); len(got) != 3 {
		t.Fatalf("payload lost: %v", got)
	}
	// Matching on the slice field itself must not panic, just not match.
	s.Write(NewEntry("Data", "values", payload), nil, time.Minute)
	if _, err := s.Take(NewEntry("Data", "values", []float64{1, 2, 3}), nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slice template err = %v", err)
	}
}

func TestNewEntryPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEntry("X", "k")
}

func TestEntryCloneIndependence(t *testing.T) {
	e := task("a", 1)
	c := e.Clone()
	c.Fields["n"] = 99
	if e.Field("n") != 1 {
		t.Fatal("Clone shares fields")
	}
}

// Property: conservation — after w writes and t takes (t <= w) of the same
// kind, Count reports w - t.
func TestPropertyConservation(t *testing.T) {
	f := func(writes, takes uint8) bool {
		w := int(writes%20) + 1
		k := int(takes) % (w + 1)
		fc := clockwork.NewFake(epoch)
		s := New(fc, lease.Policy{Max: time.Hour})
		defer s.Close()
		for i := 0; i < w; i++ {
			if _, err := s.Write(task("sig", i), nil, time.Minute); err != nil {
				return false
			}
		}
		for i := 0; i < k; i++ {
			if _, err := s.Take(NewEntry("ExertionEnvelope"), nil, 0); err != nil {
				return false
			}
		}
		return s.Count(NewEntry("ExertionEnvelope")) == w-k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent takers never receive the same entry twice.
func TestPropertyExclusiveTakes(t *testing.T) {
	_, s := newSpace(t)
	const n = 50
	for i := 0; i < n; i++ {
		s.Write(task("sig", i), nil, time.Minute)
	}
	var mu sync.Mutex
	seen := make(map[any]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, err := s.Take(NewEntry("ExertionEnvelope"), nil, 0)
				if err != nil {
					return
				}
				mu.Lock()
				if seen[e.Field("n")] {
					t.Errorf("duplicate take of %v", e.Field("n"))
				}
				seen[e.Field("n")] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("took %d entries, want %d", len(seen), n)
	}
}

func TestCountWithTemplate(t *testing.T) {
	_, s := newSpace(t)
	s.Write(task("a", 1), nil, time.Minute)
	s.Write(task("b", 2), nil, time.Minute)
	s.Write(NewEntry("Result", "signature", "a"), nil, time.Minute)
	if n := s.Count(NewEntry("ExertionEnvelope", "signature", "a")); n != 1 {
		t.Fatalf("Count = %d", n)
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 2 {
		t.Fatalf("Count = %d", n)
	}
}

func TestManyKindsIsolated(t *testing.T) {
	_, s := newSpace(t)
	for i := 0; i < 10; i++ {
		s.Write(NewEntry(fmt.Sprintf("K%d", i), "i", i), nil, time.Minute)
	}
	for i := 0; i < 10; i++ {
		e, err := s.Take(NewEntry(fmt.Sprintf("K%d", i)), nil, 0)
		if err != nil || e.Field("i") != i {
			t.Fatalf("kind K%d: %v %v", i, e, err)
		}
	}
}

// Randomized stress: concurrent writers/takers/readers mixing direct and
// transactional operations. Invariant: every written entry is either taken
// exactly once or still present at the end — no loss, no duplication.
func TestStressConservationUnderConcurrency(t *testing.T) {
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	t.Cleanup(s.Close)
	tm := txn.NewManager(clockwork.Real(), lease.Policy{Max: time.Hour})

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	// Writers: half direct, half under committed/aborted transactions.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := w*perWriter + i
				switch i % 4 {
				case 0, 1: // direct write
					s.Write(NewEntry("Stress", "key", key), nil, time.Hour)
				case 2: // committed txn write
					tx, _ := tm.Create(time.Minute)
					s.Write(NewEntry("Stress", "key", key), tx, time.Hour)
					tx.Commit()
				case 3: // aborted txn write (entry must vanish)
					tx, _ := tm.Create(time.Minute)
					s.Write(NewEntry("StressAborted", "key", key), tx, time.Hour)
					tx.Abort()
				}
			}
		}(w)
	}
	// Concurrent takers drain what they can.
	var takenMu sync.Mutex
	taken := map[any]bool{}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				e, err := s.Take(NewEntry("Stress"), nil, 20*time.Millisecond)
				if err != nil {
					return
				}
				k := e.Field("key")
				takenMu.Lock()
				if taken[k] {
					t.Errorf("entry %v taken twice", k)
				}
				taken[k] = true
				takenMu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Whatever was not taken is still countable; totals must add up to
	// the number of committed+direct writes (i%4 in {0,1,2}).
	expected := 0
	for i := 0; i < perWriter; i++ {
		if i%4 != 3 {
			expected++
		}
	}
	expected *= writers
	remaining := s.Count(NewEntry("Stress"))
	takenMu.Lock()
	got := len(taken) + remaining
	takenMu.Unlock()
	if got != expected {
		t.Fatalf("conservation violated: taken+remaining = %d, want %d", got, expected)
	}
	if s.Count(NewEntry("StressAborted")) != 0 {
		t.Fatal("aborted writes leaked")
	}
}

// TestCancelLeavesNothingBehind: a holder's Cancel takes the entry out of
// the entry table, the lease index and the match index, not only out of
// Count.
func TestCancelLeavesNothingBehind(t *testing.T) {
	_, s := newSpace(t)
	kept, err := s.Write(NewEntry("job", "uid", int64(1)), nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Write(NewEntry("job", "uid", int64(2)), nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byLease[kept.ID]
	if !ok || len(s.byLease) != 1 {
		t.Fatalf("lease index after cancel = %v, want only lease %d", s.byLease, kept.ID)
	}
	if _, ok := s.entries[id]; !ok || len(s.entries) != 1 {
		t.Fatalf("%d entries after cancel, want only entry %d", len(s.entries), id)
	}
	ki := s.byKind["job"]
	if len(ki.ids) != 1 || ki.ids[0] != id {
		t.Fatalf("kind index after cancel = %v, want [%d]", ki.ids, id)
	}
	if uid := ki.byField["uid"]; len(uid) != 1 || len(uid[int64(1)]) != 1 {
		t.Fatalf("field index after cancel = %v, want only uid 1", uid)
	}
}
