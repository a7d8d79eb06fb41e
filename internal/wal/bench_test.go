package wal

import (
	"fmt"
	"sync"
	"testing"
)

// benchPayload is a representative journal record: roughly the size of a
// JSON-encoded space write with a small envelope.
var benchPayload = make([]byte, 256)

func benchmarkAppend(b *testing.B, syncEach bool) {
	l, err := Open(b.TempDir(), WithSyncEveryAppend(syncEach))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendNoSync(b *testing.B) { benchmarkAppend(b, false) }

func BenchmarkAppendSyncEach(b *testing.B) { benchmarkAppend(b, true) }

// BenchmarkAppendBatch8SyncEach is a durable space job's commit: one
// appender, a synced log, eight 80-byte records per AppendBatch — one write
// and one fsync per batch.
func BenchmarkAppendBatch8SyncEach(b *testing.B) {
	l, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = make([]byte, 80)
	}
	b.SetBytes(8 * 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendGroupCommit8 drives 8 unserialized appender goroutines
// against one synced log. The log has no group commit, so they take turns
// under its lock and each append pays its own fsync; no product caller
// appends in this shape (each owner serializes its appends under its own
// lock). The name is kept so the checked-in baseline still judges it.
func BenchmarkAppendGroupCommit8(b *testing.B) {
	const workers = 8
	l, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := b.N / workers
			if w < b.N%workers {
				n++
			}
			for i := 0; i < n; i++ {
				if _, err := l.Append(benchPayload); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkRecovery measures Open+Replay time against log size.
func BenchmarkRecovery(b *testing.B) {
	for _, records := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, WithSyncEveryAppend(false))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if _, err := l.Append(benchPayload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				if err := re.Replay(func(uint64, []byte) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != records {
					b.Fatalf("replayed %d, want %d", n, records)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryWithSnapshot shows what compaction buys: the same
// history, but checkpointed so recovery loads the snapshot plus a short
// record suffix.
func BenchmarkRecoveryWithSnapshot(b *testing.B) {
	const records = 50_000
	dir := b.TempDir()
	l, err := Open(dir, WithSyncEveryAppend(false))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := re.Replay(func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 100 {
			b.Fatalf("replayed %d, want 100", n)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
