package space

import (
	"errors"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/txn"
)

func TestFaultInjectorWriteError(t *testing.T) {
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer s.Close()
	inj := faults.New(1, clockwork.Real())
	inj.Set("sp"+FaultSiteWrite, faults.Rule{ErrorRate: 1})
	s.SetFaultInjector(inj, "sp")
	if _, err := s.Write(NewEntry("E"), nil, time.Minute); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("write err = %v, want ErrInjected", err)
	}
}

func TestFaultInjectorDroppedWriteIsSilentlyLost(t *testing.T) {
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer s.Close()
	inj := faults.New(1, clockwork.Real())
	inj.Set("sp"+FaultSiteWrite, faults.Rule{DropRate: 1})
	s.SetFaultInjector(inj, "sp")
	if _, err := s.Write(NewEntry("E"), nil, time.Minute); err != nil {
		t.Fatalf("dropped write must look successful, got %v", err)
	}
	if n := s.Count(NewEntry("E")); n != 0 {
		t.Fatalf("dropped entry is visible (%d)", n)
	}
	// Disarm: the space works normally again.
	inj.Clear("sp" + FaultSiteWrite)
	if _, err := s.Write(NewEntry("E"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if n := s.Count(NewEntry("E")); n != 1 {
		t.Fatalf("post-heal entry count = %d", n)
	}
}

func TestFaultInjectorTakeError(t *testing.T) {
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer s.Close()
	if _, err := s.Write(NewEntry("E"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1, clockwork.Real())
	inj.Set("sp"+FaultSiteTake, faults.Rule{ErrorRate: 1})
	s.SetFaultInjector(inj, "sp")
	if _, err := s.Take(NewEntry("E"), nil, 0); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("take err = %v, want ErrInjected", err)
	}
	// The entry was not consumed by the failed take.
	s.SetFaultInjector(nil, "")
	if _, err := s.Take(NewEntry("E"), nil, 0); err != nil {
		t.Fatalf("entry lost to injected take: %v", err)
	}
}

// failingParticipant errors during prepare, forcing the transaction to
// abort — the co-participant crash scenario the space must roll back from.
type failingParticipant struct{}

func (failingParticipant) Prepare(uint64) (txn.Vote, error) {
	return txn.VotePrepared, errors.New("co-participant crashed in prepare")
}
func (failingParticipant) Commit(uint64) error { return nil }
func (failingParticipant) Abort(uint64) error  { return nil }

func TestSpaceRollsBackWhenCoParticipantFailsPrepare(t *testing.T) {
	fc := clockwork.NewFake(time.Unix(0, 0))
	s := New(fc, lease.Policy{Max: time.Hour})
	defer s.Close()
	tm := txn.NewManager(fc, lease.Policy{Max: time.Hour})

	// Pre-existing entry the transaction provisionally takes.
	if _, err := s.Write(NewEntry("Old"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	tx, _ := tm.Create(time.Hour)
	if _, err := s.Take(NewEntry("Old"), tx, 0); err != nil {
		t.Fatal(err)
	}
	// Staged write, visible only inside the transaction.
	if _, err := s.Write(NewEntry("New"), tx, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := tx.Join(failingParticipant{}); err != nil {
		t.Fatal(err)
	}

	if err := tx.Commit(); !errors.Is(err, txn.ErrCommitAbort) {
		t.Fatalf("commit err = %v, want ErrCommitAbort", err)
	}
	// The staged write vanished with the abort...
	if n := s.Count(NewEntry("New")); n != 0 {
		t.Fatalf("aborted staged write visible (%d)", n)
	}
	// ...and the provisional take was restored for everyone.
	if n := s.Count(NewEntry("Old")); n != 1 {
		t.Fatalf("provisionally taken entry not restored (%d)", n)
	}
	if _, err := s.Take(NewEntry("Old"), nil, 0); err != nil {
		t.Fatalf("restored entry not takeable: %v", err)
	}
}

// TestPartlyLostBatchAlignsLeases: in a batch some of whose writes are
// lost, every position still gets its own lease, and a landed entry's
// lease is the one at its position.
func TestPartlyLostBatchAlignsLeases(t *testing.T) {
	s := New(clockwork.Real(), lease.Policy{Max: time.Hour})
	defer s.Close()
	inj := faults.New(3, clockwork.Real())
	inj.Set("sp"+FaultSiteWrite, faults.Rule{DropRate: 0.5})
	s.SetFaultInjector(inj, "sp")
	leases, err := s.WriteBatch(batchOf(16), nil, time.Minute)
	if err != nil || len(leases) != 16 {
		t.Fatalf("WriteBatch = %d leases, %v", len(leases), err)
	}
	landed := s.Count(NewEntry("ExertionEnvelope"))
	if landed == 0 || landed == 16 {
		t.Fatalf("%d of 16 landed; the seed should lose some and keep some", landed)
	}
	seen := map[uint64]bool{}
	for i, l := range leases {
		if l.ID == 0 || seen[l.ID] {
			t.Fatalf("lease %d has id %d (seen before: %v)", i, l.ID, seen[l.ID])
		}
		seen[l.ID] = true
		before := s.Count(NewEntry("ExertionEnvelope", "n", i))
		if err := l.Cancel(); err != nil {
			t.Fatalf("cancel lease %d: %v", i, err)
		}
		if n := s.Count(NewEntry("ExertionEnvelope", "n", i)); n != 0 {
			t.Fatalf("entry %d outlived the lease at its position", i)
		}
		landed -= before
	}
	if landed != 0 {
		t.Fatalf("%d landed entries were not under their position's lease", landed)
	}
}
