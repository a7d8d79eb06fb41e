package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
	"sensorcer/internal/wire"
)

// journalIDs returns the entry id of every record in log, in order. A
// space journal record opens with its op byte, then the id as a uvarint.
func journalIDs(t *testing.T, log *wal.Log) []uint64 {
	t.Helper()
	var ids []uint64
	if err := log.Replay(func(_ uint64, p []byte) error {
		if len(p) == 0 {
			return errors.New("empty journal record")
		}
		id, _, ok := wire.ConsumeUvarint(p[1:])
		if !ok {
			return errors.New("journal record without an id")
		}
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestPromotedBackupAfterJobReusesNoID: a job's envelopes and results
// leave the space in the commits that write them (or soon after). The
// promoted backup holds none of them, and its first new id lies above
// every id the old primary issued, so no id is handed out twice.
func TestPromotedBackupAfterJobReusesNoID(t *testing.T) {
	r, a, b := newTestRouter(t)
	adder := sorcer.NewProvider("Adder-1", "Adder")
	adder.RegisterOp("add", func(ctx *sorcer.Context) error {
		x, _ := ctx.Float("arg/a")
		ctx.Put("result/value", x+1)
		return nil
	})
	w := sorcer.NewSpaceWorker(r, adder, "Adder")
	defer w.Stop()
	var tasks []sorcer.Exertion
	for i := 0; i < 8; i++ {
		tasks = append(tasks, sorcer.NewTask("add", sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", float64(i))))
	}
	job := sorcer.NewJob("job", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)
	if _, err := sorcer.NewSpacer("Spacer-1", r).Service(job, nil); err != nil {
		t.Fatal(err)
	}
	issued := uint64(0)
	for _, id := range journalIDs(t, a.Log()) {
		issued = max(issued, id)
	}
	if issued < 16 {
		t.Fatalf("old primary issued ids up to %d, want at least 16 (8 envelopes, 8 results)", issued)
	}

	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	sp := b.CurrentSpace()
	for _, kind := range []string{sorcer.EnvelopeKind, sorcer.ResultKind} {
		if n := sp.Count(space.NewEntry(kind)); n != 0 {
			t.Fatalf("promoted space holds %d %s entries, want 0", n, kind)
		}
	}
	if _, err := r.Write(space.NewEntry("job", "n", int64(1)), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	ids := journalIDs(t, b.Log())
	if id := ids[len(ids)-1]; id <= issued {
		t.Fatalf("first write after promotion got id %d, not above the old primary's %d", id, issued)
	}
}

// TestWriteBatchRetriedAfterFailedShipLandsOnce: the space takes a
// writer's field maps without copying them, and the router retries a
// WriteBatch whose ship failed with the same entries on the promoted
// backup. That is sound because the failed attempt applied nothing on
// the old primary: each entry is stored exactly once, on the new one.
func TestWriteBatchRetriedAfterFailedShipLandsOnce(t *testing.T) {
	r, a, b := newTestRouter(t)
	old := a.CurrentSpace()
	inj := faults.New(1, clockwork.Real())
	inj.Set(FaultSiteShip, faults.Rule{ErrorRate: 1, Err: errors.New("link down")})
	b.SetFaultInjector(inj, "")
	batch := make([]space.Entry, 4)
	for i := range batch {
		batch[i] = space.NewEntry("job", "n", int64(i))
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.WriteBatch(batch, nil, time.Hour)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		suspended := a.suspended
		a.mu.Unlock()
		if suspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the primary never failed its ship")
		}
		time.Sleep(time.Millisecond)
	}
	if n := old.Count(space.NewEntry("job")); n != 0 {
		t.Fatalf("the failed ship left %d entries on the old primary", n)
	}
	b.SetFaultInjector(nil, "")
	a.Kill()
	if _, err := r.Failover(r.Gen()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WriteBatch across the failover: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteBatch never retried on the promoted backup")
	}
	got, err := r.TakeAny(space.NewEntry("job"), 16, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range got {
		seen[fmt.Sprint(e.Field("n"))]++
	}
	if len(got) != len(batch) || len(seen) != len(batch) {
		t.Fatalf("promoted primary holds %v, want each of the %d entries once", seen, len(batch))
	}
}
