package repl

import (
	"errors"
	"testing"
	"time"

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
