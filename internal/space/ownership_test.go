package space

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

// sameMap reports whether two entries share one field map.
func sameMap(a, b Entry) bool {
	return reflect.ValueOf(a.Fields).UnsafePointer() == reflect.ValueOf(b.Fields).UnsafePointer()
}

// TestHandedOffEntryMutationReachesNothing: the space hands a taker the
// writer's own map, without a copy, and keeps no reference to it — so a
// taker that rewrites it changes no stored entry, no later Read and no
// journal record. The same holds for a stored entry taken later.
func TestHandedOffEntryMutationReachesNothing(t *testing.T) {
	fc, s, j := journaledSpace(t)
	done := goTakeAny(t, s, 1, nil, 0)
	batch := []Entry{task("avg", 0), task("avg", 1), task("avg", 2)}
	if _, err := s.WriteBatch(batch, nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || len(r.out) != 1 || r.out[0].Field("n") != 0 {
		t.Fatalf("taker got %v, %v", r.out, r.err)
	}
	if !sameMap(r.out[0], batch[0]) {
		t.Fatal("the handed-off entry was copied")
	}
	before := journalRecords(t, j)
	mutate := func(e Entry) {
		e.Fields["n"] = 99
		e.Fields["extra"] = true
		delete(e.Fields, "signature")
	}
	mutate(r.out[0])
	taken, err := s.Take(NewEntry("ExertionEnvelope", "n", 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutate(taken)

	got, err := s.Read(NewEntry("ExertionEnvelope"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Fields, task("avg", 2).Fields) {
		t.Fatalf("stored entry reads %v after the takers' mutations", got.Fields)
	}
	if n := s.Count(NewEntry("ExertionEnvelope", "extra", true)); n != 0 {
		t.Fatalf("%d stored entries carry a taker's field", n)
	}
	if after := journalRecords(t, j); !reflect.DeepEqual(after[:len(before)], before) {
		t.Fatalf("journal records changed under the taker:\n%+v\nwant\n%+v", after[:len(before)], before)
	}
	re := recoverFrom(t, fc, j)
	all, err := re.TakeAny(NewEntry("ExertionEnvelope"), 8, nil, 0)
	if err != nil || len(all) != 1 || fmt.Sprint(all[0].Fields) != "map[n:2 signature:avg]" {
		t.Fatalf("recovered %v, %v; want the one untaken entry as written", all, err)
	}
}

// TestSpaceNeverWritesWritersMap: whatever happens to an entry in the
// space — stored and read, handed to a reader and a taker, staged and
// committed or aborted, taken provisionally and restored, expired,
// checkpointed — the map its writer passed in keeps the writer's fields.
func TestSpaceNeverWritesWritersMap(t *testing.T) {
	fc, s, _ := journaledSpace(t)
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})
	var written []Entry
	write := func(e Entry, tx *txn.Transaction, d time.Duration) {
		t.Helper()
		if _, err := s.Write(e, tx, d); err != nil {
			t.Fatal(err)
		}
		written = append(written, e)
	}
	// Served to a blocked reader and a blocked taker in its own commit.
	read := make(chan error, 1)
	go func() {
		_, err := s.Read(NewEntry("ExertionEnvelope", "n", 1), nil, Forever)
		read <- err
	}()
	waitQueued(t, s, "ExertionEnvelope", 1)
	done := goTakeAny(t, s, 1, nil, 1)
	write(task("handed", 1), nil, time.Hour)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	// Stored, read, then taken under a transaction that aborts.
	write(task("stored", 0), nil, time.Hour)
	if _, err := s.Read(NewEntry("ExertionEnvelope", "n", 0), nil, 0); err != nil {
		t.Fatal(err)
	}
	tx, _ := tm.Create(time.Minute)
	if _, err := s.Take(NewEntry("ExertionEnvelope", "n", 0), tx, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Staged, then committed; staged, then aborted.
	tx, _ = tm.Create(time.Minute)
	write(task("committed", 2), tx, time.Hour)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = tm.Create(time.Minute)
	write(task("aborted", 3), tx, time.Hour)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Expired, and checkpointed.
	write(task("expires", 4), nil, time.Second)
	fc.Advance(2 * time.Second)
	s.Sweep()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, e := range written {
		want := task(e.Field("signature").(string), e.Field("n").(int))
		if !reflect.DeepEqual(e.Fields, want.Fields) {
			t.Fatalf("writer's map became %v, want %v", e.Fields, want.Fields)
		}
	}
}

// TestHandedOffEntryIsGrantedNoLease: an entry taken in the commit that
// writes it never lands, and its lease was never granted: Renew and
// Cancel fail as on a cancelled grant, while its batch-mates' leases work.
func TestHandedOffEntryIsGrantedNoLease(t *testing.T) {
	fc, s := newSpace(t)
	done := goTakeAny(t, s, 1, nil, 0)
	leases, err := s.WriteBatch(batchOf(2), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || len(r.out) != 1 || r.out[0].Field("n") != 0 {
		t.Fatalf("taker got %v, %v", r.out, r.err)
	}
	if n := s.leases.Len(); n != 1 {
		t.Fatalf("lease table holds %d grants, want 1 (the stored entry's)", n)
	}
	handed, stored := leases[0], leases[1]
	if handed.ID == 0 || handed.ID == stored.ID || !handed.Expiration.Equal(fc.Now().Add(time.Minute)) {
		t.Fatalf("handed-off lease %+v beside stored lease %d", handed, stored.ID)
	}
	if err := handed.Renew(time.Minute); !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("Renew of a handed-off entry's lease = %v, want ErrUnknownLease", err)
	}
	if err := handed.Cancel(); !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("Cancel of a handed-off entry's lease = %v, want ErrUnknownLease", err)
	}
	if err := stored.Renew(time.Minute); err != nil {
		t.Fatalf("stored entry's lease: %v", err)
	}
	if n := s.Count(NewEntry("ExertionEnvelope")); n != 1 {
		t.Fatalf("Count = %d, want the stored entry", n)
	}
}

// TestFailedWriteGrantsNoLease: a batch whose journal commit fails stores
// nothing and leaves no grant behind.
func TestFailedWriteGrantsNoLease(t *testing.T) {
	_, s, j := journaledSpace(t)
	j.setFail(errors.New("disk gone"))
	if _, err := s.WriteBatch(batchOf(3), nil, time.Minute); err == nil {
		t.Fatal("write acknowledged without its journal commit")
	}
	if n := s.leases.Len(); n != 0 {
		t.Fatalf("lease table holds %d grants after a failed write", n)
	}
}
