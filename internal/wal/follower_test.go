package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
)

// followerSeed returns the divergence-test seed: CHAOS_SEED when set,
// else 1, so runs are reproducible by exporting the printed seed.
func followerSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 1
}

// shipAll replays primary from the follower's next expected sequence and
// applies everything to the follower in one batch per call to fn.
func shipAll(t *testing.T, primary, follower *Log) {
	t.Helper()
	from := follower.NextSeq()
	var seqs []uint64
	var payloads [][]byte
	err := primary.ReplayFrom(from, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	if len(seqs) == 0 {
		return
	}
	if _, err := follower.AppendAt(seqs[0], payloads); err != nil {
		t.Fatalf("append at %d: %v", seqs[0], err)
	}
}

// segmentBytes returns each segment file's name and contents, flushing the
// log's buffer first so on-disk state is complete.
func segmentBytes(t *testing.T, l *Log) map[string][]byte {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = raw
	}
	return out
}

func TestAppendAtAppliesSkipsDuplicatesAndRefusesGaps(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	batch := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	next, err := l.AppendAt(1, batch)
	if err != nil {
		t.Fatalf("AppendAt: %v", err)
	}
	if next != 4 {
		t.Fatalf("next = %d, want 4", next)
	}
	// Re-shipping the same batch (and an overlapping one) is a no-op for
	// the duplicate prefix.
	if next, err = l.AppendAt(1, batch); err != nil || next != 4 {
		t.Fatalf("duplicate AppendAt = (%d, %v), want (4, nil)", next, err)
	}
	if next, err = l.AppendAt(3, [][]byte{[]byte("c"), []byte("d")}); err != nil || next != 5 {
		t.Fatalf("overlap AppendAt = (%d, %v), want (5, nil)", next, err)
	}
	// A batch starting beyond the append position is a gap.
	if _, err := l.AppendAt(7, [][]byte{[]byte("x")}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap AppendAt err = %v, want ErrSeqGap", err)
	}
	seqs, payloads := collect(t, l)
	want := []string{"a", "b", "c", "d"}
	if len(seqs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(seqs), len(want))
	}
	for i, p := range payloads {
		if string(p) != want[i] {
			t.Fatalf("record %d = %q, want %q", seqs[i], p, want[i])
		}
	}
}

func TestReplayFromStreamsSuffixAndReportsCompaction(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err = l.ReplayFrom(4, func(seq uint64, _ []byte) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayFrom: %v", err)
	}
	if len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("ReplayFrom(4) sequences = %v, want [4 5 6]", got)
	}

	if err := l.WriteSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := l.ReplayFrom(3, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReplayFrom below snapshot err = %v, want ErrCompacted", err)
	}
	// From just past the snapshot is fine (nothing to stream yet).
	if err := l.ReplayFrom(7, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("ReplayFrom(7): %v", err)
	}
}

func TestInstallSnapshotResyncsAFreshFollower(t *testing.T) {
	primary, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 5; i++ {
		if _, err := primary.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.WriteSnapshot([]byte("snapshot-at-5")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := primary.Append([]byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	followerDir := t.TempDir()
	follower, err := Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh follower is behind the compaction horizon.
	if err := primary.ReplayFrom(follower.NextSeq(), func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReplayFrom err = %v, want ErrCompacted", err)
	}
	data, seq, _, ok := primary.Snapshot()
	if !ok {
		t.Fatal("primary has no snapshot")
	}
	if err := follower.InstallSnapshot(seq, data); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if follower.NextSeq() != seq+1 {
		t.Fatalf("follower NextSeq = %d, want %d", follower.NextSeq(), seq+1)
	}
	shipAll(t, primary, follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: snapshot and suffix both survive.
	re, err := Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reData, reSeq, _, ok := re.Snapshot()
	if !ok || reSeq != seq || string(reData) != "snapshot-at-5" {
		t.Fatalf("reopened snapshot = (%q, %d, %v), want (%q, %d, true)", reData, reSeq, ok, "snapshot-at-5", seq)
	}
	seqs, payloads := collect(t, re)
	if len(seqs) != 3 || seqs[0] != 6 || string(payloads[2]) != "new-2" {
		t.Fatalf("reopened replay = %v, want records 6..8", seqs)
	}
}

// TestFollowerDivergenceCrashMidBatchCatchUp is the seeded divergence
// test: the follower crashes mid-batch with a torn partial frame on disk,
// reopens (truncating the torn tail), catches up from the primary, and
// after further traffic the two journals are byte-identical segment file
// by segment file.
func TestFollowerDivergenceCrashMidBatchCatchUp(t *testing.T) {
	seedVal := followerSeed(t)
	iterations := 20
	if testing.Short() {
		iterations = 5
	}
	for it := 0; it < iterations; it++ {
		rng := rand.New(rand.NewSource(seedVal + int64(it)*1000003))
		primaryDir, followerDir := t.TempDir(), t.TempDir()
		opts := []Option{WithSyncEveryAppend(false), WithSegmentLimit(512)}
		primary, err := Open(primaryDir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := Open(followerDir, opts...)
		if err != nil {
			t.Fatal(err)
		}

		appendBatch := func() {
			n := 1 + rng.Intn(4)
			payloads := make([][]byte, n)
			for i := range payloads {
				p := make([]byte, 8+rng.Intn(48))
				rng.Read(p)
				payloads[i] = p
			}
			first, err := primary.AppendBatch(payloads)
			if err != nil {
				t.Fatalf("primary append (CHAOS_SEED=%d reproduces): %v", seedVal, err)
			}
			if _, err := follower.AppendAt(first, payloads); err != nil {
				t.Fatalf("follower apply (CHAOS_SEED=%d reproduces): %v", seedVal, err)
			}
		}

		pre := 3 + rng.Intn(10)
		for i := 0; i < pre; i++ {
			appendBatch()
		}

		// Crash the follower mid-batch: the injected append fault tears a
		// seeded-random partial frame onto disk and fails the log.
		inj := faults.New(seedVal, clockwork.Real())
		inj.Set(FaultSiteAppend, faults.Rule{ErrorRate: 1, Err: faults.ErrCrashed})
		follower.SetFaultInjector(inj, "")
		follower.ArmTornWrites(rng.Int63())
		crashPayloads := [][]byte{[]byte("doomed-1"), []byte("doomed-2")}
		crashFirst, err := primary.AppendBatch(crashPayloads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.AppendAt(crashFirst, crashPayloads); !errors.Is(err, faults.ErrCrashed) {
			t.Fatalf("follower crash apply err = %v, want ErrCrashed (CHAOS_SEED=%d reproduces)", err, seedVal)
		}
		_ = follower.Close()

		// Restart: Open truncates the torn tail, then the primary re-ships
		// from the follower's recovered position.
		follower, err = Open(followerDir, opts...)
		if err != nil {
			t.Fatalf("reopen follower (CHAOS_SEED=%d reproduces): %v", seedVal, err)
		}
		if follower.NextSeq() > crashFirst+uint64(len(crashPayloads)) {
			t.Fatalf("follower recovered past the crash batch: next %d (CHAOS_SEED=%d reproduces)", follower.NextSeq(), seedVal)
		}
		shipAll(t, primary, follower)

		post := 1 + rng.Intn(8)
		for i := 0; i < post; i++ {
			appendBatch()
		}

		pSegs := segmentBytes(t, primary)
		fSegs := segmentBytes(t, follower)
		if len(pSegs) != len(fSegs) {
			t.Fatalf("segment counts differ: primary %d, follower %d (CHAOS_SEED=%d reproduces)", len(pSegs), len(fSegs), seedVal)
		}
		for name, want := range pSegs {
			got, ok := fSegs[name]
			if !ok {
				t.Fatalf("follower missing segment %s (CHAOS_SEED=%d reproduces)", name, seedVal)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("segment %s diverged: %d vs %d bytes (CHAOS_SEED=%d reproduces)", name, len(got), len(want), seedVal)
			}
		}
		if err := primary.Close(); err != nil {
			t.Fatal(err)
		}
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentsIndependentOfSyncSetting ships a synced primary's batches to
// an unsynced follower with the same segment limit: a segment rotates
// before the record that would overflow it, whatever the sync setting, so
// the two logs' segment files are byte-identical.
func TestSegmentsIndependentOfSyncSetting(t *testing.T) {
	primary, err := Open(t.TempDir(), WithSegmentLimit(256))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	follower, err := Open(t.TempDir(), WithSegmentLimit(256), WithSyncEveryAppend(false))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for b := 0; b < 12; b++ {
		payloads := make([][]byte, 5)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("batch-%02d-record-%d", b, i))
		}
		first, err := primary.AppendBatch(payloads)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.AppendAt(first, payloads); err != nil {
			t.Fatal(err)
		}
	}
	pSegs, fSegs := segmentBytes(t, primary), segmentBytes(t, follower)
	if len(pSegs) < 2 || len(pSegs) != len(fSegs) {
		t.Fatalf("segment counts: primary %d, follower %d; want equal and > 1", len(pSegs), len(fSegs))
	}
	for name, want := range pSegs {
		if got, ok := fSegs[name]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("segment %s differs: follower has %d bytes, primary %d", name, len(got), len(want))
		}
	}
}
