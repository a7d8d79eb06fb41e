package remote

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/repl"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/srpc"
	"sensorcer/internal/txn"
	"sensorcer/internal/wal"
)

// TestReplicationOverSRPC runs a shard pair across a process-style
// boundary: the backup serves its replication endpoints on srpc and the
// primary ships through a ReplicationClient. Every acknowledged write
// must be durable on the remote log, and the wire must preserve the
// sentinel errors the fencing logic branches on.
func TestReplicationOverSRPC(t *testing.T) {
	policy := lease.Policy{Max: time.Hour, Min: time.Millisecond}
	primary, err := repl.NewNode("p", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = primary.Close() }()
	backup, err := repl.NewNode("b", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backup.Close() }()

	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	desc := ServeReplication(server, "s0", backup)
	if desc.Kind != ReplicationKind || desc.Locator == "" {
		t.Fatalf("desc = %+v", desc)
	}
	follower, err := NewReplicationClient(desc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	sp, err := primary.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AttachBackup(2, follower, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sp.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if pp, bp := primary.Log().NextSeq(), backup.Log().NextSeq(); pp != bp || pp != 6 {
		t.Fatalf("log positions: primary %d, remote backup %d, want both 6", pp, bp)
	}

	// Heartbeats cross the wire too.
	if err := follower.Heartbeat(2); err != nil {
		t.Fatalf("remote heartbeat: %v", err)
	}

	// A checkpoint ships its snapshot: both logs compact in lockstep.
	if err := sp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ps, bs := primary.Log().SnapshotSeq(), backup.Log().SnapshotSeq(); ps != bs || ps == 0 {
		t.Fatalf("snapshot seqs: primary %d, remote backup %d", ps, bs)
	}

	// Sentinels survive the string-flattening wire: a stale-epoch ship
	// must come back as ErrStaleEpoch so the sender fences itself.
	if _, err := follower.ShipBatch(1, 1, [][]byte{[]byte("x")}); !errors.Is(err, repl.ErrStaleEpoch) {
		t.Fatalf("stale remote ship = %v, want ErrStaleEpoch", err)
	}
	// And a gapped ship maps back to wal.ErrSeqGap.
	if _, err := follower.ShipBatch(2, 99, [][]byte{[]byte("x")}); !errors.Is(err, wal.ErrSeqGap) {
		t.Fatalf("gapped remote ship = %v, want ErrSeqGap", err)
	}
}

// TestRemoteFailoverPromotesRemoteLog proves the remote backup's log is
// complete enough to take over: kill the primary, promote the backup
// in its own "process", and read back every acknowledged entry.
func TestRemoteFailoverPromotesRemoteLog(t *testing.T) {
	policy := lease.Policy{Max: time.Hour, Min: time.Millisecond}
	primary, err := repl.NewNode("p", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = primary.Close() }()
	backup, err := repl.NewNode("b", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backup.Close() }()

	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	follower, err := NewReplicationClient(ServeReplication(server, "s0", backup), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	sp, err := primary.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AttachBackup(2, follower, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := sp.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	primary.Kill()
	promoted, err := backup.Promote(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := promoted.TakeAny(space.NewEntry("job"), 16, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("promoted remote backup served %d entries, want 7", len(got))
	}
}

// countingFollower counts the batches a primary ships to its backup.
type countingFollower struct {
	repl.Follower
	ships atomic.Int64
}

func (c *countingFollower) ShipBatch(epoch, firstSeq uint64, payloads [][]byte) (uint64, error) {
	c.ships.Add(1)
	return c.Follower.ShipBatch(epoch, firstSeq, payloads)
}

// takingOps reports the first TakeAny its holder makes.
type takingOps struct {
	sorcer.SpaceOps
	once   sync.Once
	taking chan struct{}
}

func (o *takingOps) TakeAny(tmpl space.Entry, max int, tx *txn.Transaction, timeout time.Duration) ([]space.Entry, error) {
	o.once.Do(func() { close(o.taking) })
	return o.SpaceOps.TakeAny(tmpl, max, tx, timeout)
}

// TestSpacerJobShipsTwice: a parallel 8-task job through a space
// replicated over srpc costs two ships — the envelopes ride with the
// blocked worker's take of them, and the results with the spacer's.
func TestSpacerJobShipsTwice(t *testing.T) {
	policy := lease.Policy{Max: time.Hour}
	primary, err := repl.NewNode("p", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = primary.Close() }()
	backup, err := repl.NewNode("b", clockwork.Real(), policy, t.TempDir(),
		repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backup.Close() }()
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewReplicationClient(ServeReplication(server, "s0", backup), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sp, err := primary.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	follower := &countingFollower{Follower: client}
	if _, err := primary.AttachBackup(2, follower, false); err != nil {
		t.Fatal(err)
	}

	// Both sides block before the other writes: the worker on envelopes,
	// and — because the adder holds its results until then — the spacer
	// on results. The short sleeps let each TakeAny reach its wait queue.
	workerOps := &takingOps{SpaceOps: sp, taking: make(chan struct{})}
	spacerOps := &takingOps{SpaceOps: sp, taking: make(chan struct{})}
	adder := sorcer.NewProvider("Adder-1", "Adder")
	var held sync.Once
	adder.RegisterOp("add", func(ctx *sorcer.Context) error {
		held.Do(func() {
			<-spacerOps.taking
			time.Sleep(20 * time.Millisecond)
		})
		a, _ := ctx.Float("arg/a")
		b, _ := ctx.Float("arg/b")
		ctx.Put("result/value", a+b)
		return nil
	})
	w := sorcer.NewSpaceWorker(workerOps, adder, "Adder")
	defer w.Stop()
	<-workerOps.taking
	time.Sleep(10 * time.Millisecond)

	var tasks []sorcer.Exertion
	for i := 0; i < 8; i++ {
		tasks = append(tasks, sorcer.NewTask("add", sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 100.0)))
	}
	job := sorcer.NewJob("job", sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)
	follower.ships.Store(0)
	if _, err := sorcer.NewSpacer("Spacer-1", spacerOps).Service(job, nil); err != nil {
		t.Fatal(err)
	}
	if n := follower.ships.Load(); n != 2 {
		t.Fatalf("an 8-task job cost %d ships, want 2", n)
	}
	for i, c := range tasks {
		if v, err := c.(*sorcer.Task).Context().Float("result/value"); err != nil || v != float64(i)+100 {
			t.Fatalf("task %d result = %v, %v", i, v, err)
		}
	}
}
