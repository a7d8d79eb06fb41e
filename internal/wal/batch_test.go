package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestAppendBatchSequencesAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendBatch(nil); err != nil || seq != 0 {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", seq, err)
	}
	if seq, err := l.Append([]byte("solo")); err != nil || seq != 1 {
		t.Fatalf("Append = (%d, %v)", seq, err)
	}
	batch := [][]byte{[]byte("b-0"), []byte("b-1"), []byte("b-2")}
	first, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("batch first seq = %d, want 2", first)
	}
	if next := l.NextSeq(); next != 5 {
		t.Fatalf("NextSeq = %d, want 5", next)
	}
	if seq, err := l.Append([]byte("after")); err != nil || seq != 5 {
		t.Fatalf("post-batch Append = (%d, %v), want (5, nil)", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re)
	want := [][]byte{[]byte("solo"), []byte("b-0"), []byte("b-1"), []byte("b-2"), []byte("after")}
	if len(seqs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, seqs[i], payloads[i], i+1, want[i])
		}
	}
}

// TestAppendBatchConcurrentWithAppends races batched and single appends
// and checks that every acknowledged record replays exactly once with
// consecutive batch sequences.
func TestAppendBatchConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		rounds  = 25
		batchN  = 5
	)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		firsts = map[string]uint64{} // payload prefix -> first seq of its batch
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					batch := make([][]byte, batchN)
					for i := range batch {
						batch[i] = []byte(fmt.Sprintf("w%d-r%d-%d", w, r, i))
					}
					first, err := l.AppendBatch(batch)
					if err != nil {
						t.Errorf("AppendBatch: %v", err)
						return
					}
					mu.Lock()
					firsts[fmt.Sprintf("w%d-r%d", w, r)] = first
					mu.Unlock()
				} else {
					if _, err := l.Append([]byte(fmt.Sprintf("w%d-r%d", w, r))); err != nil {
						t.Errorf("Append: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	bySeq := map[uint64]string{}
	seqs, payloads := collect(t, re)
	for i, s := range seqs {
		bySeq[s] = string(payloads[i])
	}
	wantRecords := writers / 2 * rounds * batchN  // even writers
	wantRecords += (writers - writers/2) * rounds // odd writers
	if len(bySeq) != wantRecords {
		t.Fatalf("replayed %d records, want %d", len(bySeq), wantRecords)
	}
	// Batches must occupy consecutive sequences — no interleaving.
	for prefix, first := range firsts {
		for i := 0; i < batchN; i++ {
			want := fmt.Sprintf("%s-%d", prefix, i)
			if got := bySeq[first+uint64(i)]; got != want {
				t.Fatalf("batch %s: seq %d = %q, want %q", prefix, first+uint64(i), got, want)
			}
		}
	}
}

// TestAppendBatchLargerThanGroupBatch exercises the path where one batch
// exceeds the group-commit fsync cap and must be covered by multiple
// leader rounds before acknowledgement.
func TestAppendBatchLargerThanGroupBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithGroupCommit(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, 7)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("big-%d", i))
	}
	first, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first = %d, want 1", first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, _ := collect(t, re)
	if len(seqs) != len(batch) {
		t.Fatalf("replayed %d, want %d", len(seqs), len(batch))
	}
}

// TestAppendBatchUnsynced checks the WithSyncEveryAppend(false) path: the
// batch is buffered without an fsync and still replays after a clean
// close.
func TestAppendBatchUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, _ := collect(t, re)
	if len(seqs) != 2 {
		t.Fatalf("replayed %d, want 2", len(seqs))
	}
}
