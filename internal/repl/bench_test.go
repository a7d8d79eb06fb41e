package repl

import (
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// The replication cost model: a write acks only after the batch is in
// both logs, so the per-ack overhead versus a solo primary is one
// follower ShipBatch (in-process here; the srpc wire variant lives in
// internal/remote). Sync-per-append is off in every variant so the
// deltas isolate shipping cost rather than fsync cost.

func benchNode(b *testing.B, name string) *Node {
	b.Helper()
	n, err := NewNode(name, clockwork.Real(), lease.Policy{Max: 24 * time.Hour},
		b.TempDir(), WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = n.Close() })
	return n
}

// benchSpace returns a serving primary: solo, or with an in-process
// follower when replicated.
func benchSpace(b *testing.B, replicated bool) *space.Space {
	b.Helper()
	primary := benchNode(b, "p")
	sp, err := primary.Promote(1)
	if err != nil {
		b.Fatal(err)
	}
	if replicated {
		backup := benchNode(b, "b")
		if _, err := primary.AttachBackup(2, backup, false); err != nil {
			b.Fatal(err)
		}
	}
	return sp
}

// drainSpace empties the space outside the timer so the working set
// stays bounded without charging take cost to the write path.
func drainSpace(b *testing.B, sp *space.Space) {
	b.Helper()
	b.StopTimer()
	for {
		got, err := sp.TakeAny(space.NewEntry("job"), 4096, nil, 0)
		if err != nil || len(got) == 0 {
			break
		}
	}
	b.StartTimer()
}

func benchmarkWriteAck(b *testing.B, replicated bool) {
	sp := benchSpace(b, replicated)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			b.Fatal(err)
		}
		if i%8192 == 8191 {
			drainSpace(b, sp)
		}
	}
}

func BenchmarkWriteAckSolo(b *testing.B) { benchmarkWriteAck(b, false) }

func BenchmarkWriteAckReplicated(b *testing.B) { benchmarkWriteAck(b, true) }

func benchmarkWriteBatch16(b *testing.B, replicated bool) {
	sp := benchSpace(b, replicated)
	entries := make([]space.Entry, 16)
	for i := range entries {
		entries[i] = space.NewEntry("job", "n", int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.WriteBatch(entries, nil, time.Hour); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			drainSpace(b, sp)
		}
	}
}

func BenchmarkWriteBatch16Solo(b *testing.B) { benchmarkWriteBatch16(b, false) }

func BenchmarkWriteBatch16Replicated(b *testing.B) { benchmarkWriteBatch16(b, true) }

// BenchmarkRouterWriteReplicated is the end-to-end routed ack path:
// configuration read, replicated write.
func BenchmarkRouterWriteReplicated(b *testing.B) {
	r, err := NewRouter(clockwork.Real(), benchNode(b, "a"), benchNode(b, "b"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = r.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Write(space.NewEntry("job", "n", int64(i)), nil, time.Hour); err != nil {
			b.Fatal(err)
		}
		if i%8192 == 8191 {
			b.StopTimer()
			for {
				got, terr := r.TakeAny(space.NewEntry("job"), 4096, nil, 0)
				if terr != nil || len(got) == 0 {
					break
				}
			}
			b.StartTimer()
		}
	}
}
