package repl

import (
	"errors"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// testPolicy keeps entry leases generous so nothing expires mid-test.
var testPolicy = lease.Policy{Max: time.Hour, Min: time.Millisecond}

// newPair builds a primary/backup node pair on fresh temp WALs.
func newPair(t *testing.T) (*Node, *Node) {
	t.Helper()
	a, err := NewNode("a", clockwork.Real(), testPolicy, t.TempDir(),
		WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", clockwork.Real(), testPolicy, t.TempDir(),
		WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// newTestRouter builds a router over a fresh pair.
func newTestRouter(t *testing.T, opts ...RouterOption) (*Router, *Node, *Node) {
	t.Helper()
	a, b := newPair(t)
	r, err := NewRouter(clockwork.Real(), a, b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r, a, b
}

func TestReplicatedWriteIsDurableOnBothNodes(t *testing.T) {
	r, a, b := newTestRouter(t)
	for i := 0; i < 5; i++ {
		e := space.NewEntry("job", "n", int64(i))
		if _, err := r.Write(e, nil, time.Hour); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Every acked write shipped synchronously: both logs sit at the same
	// position.
	if ap, bp := a.Log().NextSeq(), b.Log().NextSeq(); ap != bp || ap != 6 {
		t.Fatalf("log positions: primary %d, backup %d, want both 6", ap, bp)
	}
}

func TestFailoverServesEveryAckedWrite(t *testing.T) {
	r, a, _ := newTestRouter(t)
	for i := 0; i < 8; i++ {
		if _, err := r.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	got, err := r.TakeAny(space.NewEntry("job"), 16, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("recovered %d entries after failover, want 8", len(got))
	}
}

func TestSupersededPrimaryFencesItself(t *testing.T) {
	r, a, b := newTestRouter(t)
	sp := a.CurrentSpace()
	if _, err := r.Write(space.NewEntry("job", "n", int64(1)), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	// The backup is promoted behind the primary's back — the partition
	// scenario, with the coordinator on the far side.
	if _, err := b.Promote(a.Epoch() + 1); err != nil {
		t.Fatal(err)
	}
	// The old primary's next write ships under the old epoch, is rejected
	// as stale, and must NOT be acknowledged.
	_, err := sp.Write(space.NewEntry("job", "n", int64(2)), nil, time.Hour)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale primary ack: err = %v, want ErrStaleEpoch", err)
	}
	if !a.IsFenced() {
		t.Fatal("superseded primary did not fence itself")
	}
	// Fenced means fenced: even with the backup healthy again, nothing
	// goes through until the coordinator demotes and reattaches.
	if _, err := sp.Write(space.NewEntry("job", "n", int64(3)), nil, time.Hour); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("fenced primary accepted a write: %v", err)
	}
}

func TestPartitionedShipSuspendsPrimaryWithoutAck(t *testing.T) {
	r, a, b := newTestRouter(t)
	// Cut the replication link: every ship to b now fails.
	inj := faults.New(1, clockwork.Real())
	inj.Set(FaultSiteShip, faults.Rule{ErrorRate: 1, Err: errors.New("link down")})
	b.SetFaultInjector(inj, "")
	sp := a.CurrentSpace()
	_, err := sp.Write(space.NewEntry("job", "n", int64(1)), nil, time.Hour)
	if !errors.Is(err, ErrBackupUnavailable) {
		t.Fatalf("unshippable write: err = %v, want ErrBackupUnavailable", err)
	}
	// Suspended is sticky until the coordinator acts.
	if _, err := sp.Write(space.NewEntry("job", "n", int64(2)), nil, time.Hour); !errors.Is(err, ErrBackupUnavailable) {
		t.Fatalf("suspended primary accepted a write: %v", err)
	}
	// Detach heals the pair: the primary re-recovers from its own log
	// (memory may lag it by the unacked record) and serves solo.
	if err := r.Detach(r.Gen()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(space.NewEntry("job", "n", int64(3)), nil, time.Hour); err != nil {
		t.Fatalf("write after detach: %v", err)
	}
}

func TestReattachFullResyncRestoresReplication(t *testing.T) {
	r, a, _ := newTestRouter(t)
	for i := 0; i < 6; i++ {
		if _, err := r.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(space.NewEntry("job", "n", int64(100)), nil, time.Hour); err != nil {
		t.Fatalf("solo write after failover: %v", err)
	}
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := r.Reattach(r.Gen()); err != nil {
		t.Fatal(err)
	}
	if !r.BackupAttached() {
		t.Fatal("backup not attached after reattach")
	}
	// Replication is synchronous again: a new write lands on both.
	if _, err := r.Write(space.NewEntry("job", "n", int64(101)), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	p, bk := r.Primary(), r.Backup()
	if pp, bp := p.Log().NextSeq(), bk.Log().NextSeq(); pp != bp {
		t.Fatalf("after reattach: primary at %d, backup at %d", pp, bp)
	}
	// And the resynced backup can itself take over with full state.
	p.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	if n := r.Count(space.NewEntry("job")); n != 8 {
		t.Fatalf("entries after second failover = %d, want 8", n)
	}
}

func TestRouterParksOpsAcrossFailover(t *testing.T) {
	r, a, _ := newTestRouter(t)
	if _, err := r.Write(space.NewEntry("job", "n", int64(1)), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Started before the failover; must ride it out and succeed
		// against the promoted primary.
		_, err := r.Take(space.NewEntry("job"), nil, 5*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("take across failover: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("take never completed after failover")
	}
}

func TestHeartbeatFaultSiteMakesNodeLookDead(t *testing.T) {
	_, a, _ := newTestRouter(t)
	inj := faults.New(1, clockwork.Real())
	inj.Set(FaultSiteHeartbeat, faults.Rule{ErrorRate: 1, Err: faults.ErrInjected})
	a.SetFaultInjector(inj, "")
	if err := a.Heartbeat(a.Epoch()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("heartbeat = %v, want injected fault", err)
	}
}

func TestFollowerCrashDuringCatchUpLeavesAttachRetryable(t *testing.T) {
	r, a, _ := newTestRouter(t)
	for i := 0; i < 4; i++ {
		if _, err := r.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	if err := a.Restart(); err != nil {
		t.Fatal(err)
	}
	// The restarted spare rejects the catch-up ship: attach must fail,
	// leave the primary serving solo, and succeed on a later retry.
	inj := faults.New(1, clockwork.Real())
	inj.Set(FaultSiteShip, faults.Rule{ErrorRate: 1, Err: errors.New("still partitioned")})
	a.SetFaultInjector(inj, "")
	if err := r.Reattach(r.Gen()); err == nil {
		t.Fatal("reattach through a dead link succeeded")
	}
	if _, err := r.Write(space.NewEntry("job", "n", int64(99)), nil, time.Hour); err != nil {
		t.Fatalf("solo write after failed attach: %v", err)
	}
	a.SetFaultInjector(nil, "")
	if err := r.Reattach(r.Gen()); err != nil {
		t.Fatalf("retried reattach: %v", err)
	}
	if !r.BackupAttached() {
		t.Fatal("backup not attached after retried reattach")
	}
}
