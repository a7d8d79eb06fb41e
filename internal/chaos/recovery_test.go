//go:build chaos

package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/txn"
	"sensorcer/internal/wal"
)

// The crash-recovery suite: model-based crash/replay iterations. Each
// iteration drives a durable space (or registry) through a seeded random
// op sequence, maintaining a model of exactly which effects were ACKED,
// then kills it — sometimes cleanly, sometimes mid-append with a torn
// partial frame at a seeded-random offset — recovers from the journal,
// and asserts the three replay invariants:
//
//  1. no acked write lost,
//  2. no entry taken twice (drains must yield no duplicates and no
//     durably-taken entry),
//  3. no aborted (or unresolved) transaction resurrected.
//
// A seeded sample of entries has its lease cancelled by the holder; the
// model treats a cancelled entry like a taken one, so it must be absent
// after every crash and replay.
//
// The op in flight at the crash is indeterminate by definition (the
// caller never got an ack) and is excluded from the model.

const envelopeKind = "ExertionEnvelope"

// spaceModel tracks which entry uids must be present after recovery.
type spaceModel struct {
	present map[int64]bool
	nextUID int64
}

func (m *spaceModel) uid() int64 { m.nextUID++; return m.nextUID }

// expectPresent returns the sorted uid set the recovered space must hold.
func (m *spaceModel) expectPresent() map[int64]bool {
	out := make(map[int64]bool)
	for uid, p := range m.present {
		if p {
			out[uid] = true
		}
	}
	return out
}

func uidEntry(uid int64) space.Entry {
	// float64 uid: JSON-native, so template matching survives replay.
	return space.NewEntry(envelopeKind, "uid", float64(uid))
}

func openSpace(t *testing.T, dir string, fc clockwork.Clock) (*space.Space, *wal.Log) {
	t.Helper()
	l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	s, err := space.Recover(fc, lease.Policy{Max: 24 * time.Hour}, l)
	if err != nil {
		t.Fatalf("recover space: %v", err)
	}
	return s, l
}

// drainUIDs takes every visible entry out of the space and returns the
// uid multiset, failing on duplicates (an entry served twice).
func drainUIDs(t *testing.T, s *space.Space, iter int) map[int64]bool {
	t.Helper()
	got := make(map[int64]bool)
	for {
		e, err := s.Take(space.NewEntry(envelopeKind), nil, 0)
		if errors.Is(err, space.ErrTimeout) {
			return got
		}
		if err != nil {
			t.Fatalf("iter %d: draining recovered space: %v", iter, err)
		}
		uid := int64(e.Field("uid").(float64))
		if got[uid] {
			t.Fatalf("iter %d: entry uid=%d recovered twice", iter, uid)
		}
		got[uid] = true
	}
}

// crashSpaceIteration runs one seeded op sequence against a durable space,
// crashes it, recovers, and checks the model.
func crashSpaceIteration(t *testing.T, iter int, rng *rand.Rand) {
	dir := t.TempDir()
	fc := clockwork.NewFake(time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC))
	s, l := openSpace(t, dir, fc)
	tm := txn.NewManager(fc, lease.Policy{Max: 24 * time.Hour})
	m := &spaceModel{present: make(map[int64]bool)}
	// Entries held by an unresolved transaction stay invisible in the live
	// run (the txn's lease never expires on the frozen fake clock), so they
	// cannot be candidates for later takes — though replay's forced abort
	// will bounce them back, which is what the model's `present` asserts.
	locked := make(map[int64]bool)
	leases := make(map[int64]lease.Lease)

	write := func(tx *txn.Transaction) int64 {
		uid := m.uid()
		l, err := s.Write(uidEntry(uid), tx, time.Hour)
		if err != nil {
			t.Fatalf("iter %d: write uid=%d: %v", iter, uid, err)
		}
		leases[uid] = l
		if tx == nil {
			m.present[uid] = true // acked, outside any txn
		}
		return uid
	}
	// pickRandom picks one currently-present entry no transaction holds.
	pickRandom := func() (int64, bool) {
		var candidates []int64
		for uid, p := range m.present {
			if p && !locked[uid] {
				candidates = append(candidates, uid)
			}
		}
		if len(candidates) == 0 {
			return 0, false
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
		return candidates[rng.Intn(len(candidates))], true
	}
	// takeRandom takes one currently-present entry (nil tx: the removal is
	// durable on ack).
	takeRandom := func(tx *txn.Transaction) (int64, bool) {
		uid, ok := pickRandom()
		if !ok {
			return 0, false
		}
		if _, err := s.Take(uidEntry(uid), tx, 0); err != nil {
			t.Fatalf("iter %d: take uid=%d: %v", iter, uid, err)
		}
		if tx == nil {
			delete(m.present, uid)
		} else {
			locked[uid] = true
		}
		return uid, true
	}

	nOps := 10 + rng.Intn(40)
	for op := 0; op < nOps; op++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			write(nil)
		case r < 0.65:
			takeRandom(nil)
		case r < 0.75:
			// The holder cancels the entry's lease: the release is
			// journaled, so the entry is gone for good, as if taken.
			if uid, ok := pickRandom(); ok {
				l := leases[uid]
				if err := l.Cancel(); err != nil {
					t.Fatalf("iter %d: cancel uid=%d: %v", iter, uid, err)
				}
				delete(m.present, uid)
			}
		case r < 0.90:
			// Transaction block: stage writes and takes, then resolve —
			// or don't, leaving it for replay to abort.
			tx, _ := tm.Create(time.Hour)
			var stagedWrites, stagedTakes []int64
			for i := 0; i < 1+rng.Intn(3); i++ {
				if rng.Float64() < 0.5 {
					stagedWrites = append(stagedWrites, write(tx))
				} else if uid, ok := takeRandom(tx); ok {
					stagedTakes = append(stagedTakes, uid)
				}
			}
			switch outcome := rng.Float64(); {
			case outcome < 0.40: // commit
				if err := tx.Commit(); err != nil {
					t.Fatalf("iter %d: commit: %v", iter, err)
				}
				for _, uid := range stagedWrites {
					m.present[uid] = true
				}
				for _, uid := range stagedTakes {
					delete(m.present, uid)
					delete(locked, uid)
				}
			case outcome < 0.75: // abort
				if err := tx.Abort(); err != nil {
					t.Fatalf("iter %d: abort: %v", iter, err)
				}
				// Staged writes were never acked durable; staged takes
				// bounce back. m.present already says exactly that.
				for _, uid := range stagedTakes {
					delete(locked, uid)
				}
			default:
				// Unresolved at crash: replay must abort it. Same model
				// state as an explicit abort.
			}
		default:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("iter %d: checkpoint: %v", iter, err)
			}
		}
	}

	// Crash. Half the time cleanly; half the time mid-append, leaving a
	// seeded-random torn partial frame on disk — the op that was in
	// flight fails (never acked) and is excluded from the model.
	if rng.Float64() < 0.5 {
		inj := faults.New(rng.Int63(), fc)
		inj.Set(wal.FaultSiteAppend, faults.Rule{ErrorRate: 1})
		l.SetFaultInjector(inj, "")
		l.ArmTornWrites(rng.Int63())
		uid := m.uid()
		if _, err := s.Write(uidEntry(uid), nil, time.Hour); err == nil {
			t.Fatalf("iter %d: in-flight crash write was acked", iter)
		}
	}
	s.Close()
	_ = l.Close()

	// Recover and check the three invariants against the model.
	re, rl := openSpace(t, dir, clockwork.NewFake(fc.Now().Add(time.Hour)))
	defer func() { re.Close(); _ = rl.Close() }()
	got := drainUIDs(t, re, iter)
	want := m.expectPresent()
	for uid := range want {
		if !got[uid] {
			t.Errorf("iter %d: acked write uid=%d lost in recovery", iter, uid)
		}
	}
	for uid := range got {
		if !want[uid] {
			t.Errorf("iter %d: uid=%d resurrected (taken entry back, or aborted/unresolved txn write)", iter, uid)
		}
	}
	if t.Failed() {
		t.Fatalf("iter %d: invariants violated (CHAOS_SEED=%d reproduces)", iter, seed(t))
	}
}

// TestSpaceCrashRecoveryInvariants is the headline suite: >= 200 seeded
// crash/recover iterations over the durable tuple space.
func TestSpaceCrashRecoveryInvariants(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(seed(t)))
	for i := 0; i < iters; i++ {
		crashSpaceIteration(t, i, rng)
	}
}

// crashRegistryIteration drives a durable registry through random
// register/deregister/attribute churn, crashes it, and checks the live
// set matches exactly what was acked.
func crashRegistryIteration(t *testing.T, iter int, rng *rand.Rand) {
	dir := t.TempDir()
	fc := clockwork.NewFake(time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC))
	open := func(fc clockwork.Clock) (*registry.LookupService, *wal.Log) {
		l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
		if err != nil {
			t.Fatalf("open wal: %v", err)
		}
		lus, err := registry.Recover("chaos-lus", fc, l,
			registry.WithLeasePolicy(lease.Policy{Max: 24 * time.Hour}))
		if err != nil {
			t.Fatalf("recover registry: %v", err)
		}
		return lus, l
	}
	lus, l := open(fc)

	live := make(map[string]registry.Registration) // name -> acked registration
	names := []string{"Neem", "Oak", "Pine", "Birch", "Maple", "Cedar"}
	nOps := 10 + rng.Intn(30)
	for op := 0; op < nOps; op++ {
		name := names[rng.Intn(len(names))]
		switch r := rng.Float64(); {
		case r < 0.55:
			item := registry.ServiceItem{
				Service:    name,
				Types:      []string{"SensorDataAccessor"},
				Attributes: attr.Set{attr.Name(name)},
			}
			if prev, ok := live[name]; ok {
				item.ID = prev.ServiceID // re-registration, Jini style
			}
			reg, err := lus.Register(item, time.Hour)
			if err != nil {
				t.Fatalf("iter %d: register %s: %v", iter, name, err)
			}
			live[name] = reg
		case r < 0.80:
			reg, ok := live[name]
			if !ok {
				continue
			}
			if err := lus.Deregister(reg.ServiceID); err != nil {
				t.Fatalf("iter %d: deregister %s: %v", iter, name, err)
			}
			delete(live, name)
		default:
			if err := lus.Checkpoint(); err != nil {
				t.Fatalf("iter %d: checkpoint: %v", iter, err)
			}
		}
	}

	// Crash, half the time mid-append with a torn frame.
	if rng.Float64() < 0.5 {
		inj := faults.New(rng.Int63(), fc)
		inj.Set(wal.FaultSiteAppend, faults.Rule{ErrorRate: 1})
		l.SetFaultInjector(inj, "")
		l.ArmTornWrites(rng.Int63())
		doomed := registry.ServiceItem{
			Service: "doomed", Types: []string{"SensorDataAccessor"},
			Attributes: attr.Set{attr.Name("doomed")},
		}
		if _, err := lus.Register(doomed, time.Hour); err == nil {
			t.Fatalf("iter %d: in-flight crash registration was acked", iter)
		}
	}
	lus.Close()
	_ = l.Close()

	re, rl := open(clockwork.NewFake(fc.Now().Add(time.Hour)))
	defer func() { re.Close(); _ = rl.Close() }()
	if got, want := re.Len(), len(live); got != want {
		t.Fatalf("iter %d: recovered %d registrations, want %d (CHAOS_SEED=%d reproduces)",
			iter, got, want, seed(t))
	}
	for name, reg := range live {
		item, err := re.LookupOne(registry.ByName(name))
		if err != nil {
			t.Fatalf("iter %d: acked registration %q lost (CHAOS_SEED=%d reproduces)",
				iter, name, seed(t))
		}
		if item.ID != reg.ServiceID {
			t.Fatalf("iter %d: %q recovered with ID %s, want %s", iter, name,
				item.ID.Short(), reg.ServiceID.Short())
		}
	}
}

// TestRegistryCrashRecoveryInvariants mirrors the space suite for the
// lookup service.
func TestRegistryCrashRecoveryInvariants(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 15
	}
	rng := rand.New(rand.NewSource(seed(t)))
	for i := 0; i < iters; i++ {
		crashRegistryIteration(t, i, rng)
	}
}

// TestSpacerJobAcrossCrashRecovery is the federation-level smoke: a
// pull-mode job whose durable space dies mid-flight completes after
// recovery (the tier-1 sorcer suite covers this deterministically; here
// it runs under the chaos tag alongside the invariant sweeps).
func TestSpacerJobAcrossCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	openSp := func() (*space.Space, *wal.Log) {
		l, err := wal.Open(dir, wal.WithSyncEveryAppend(false))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := space.Recover(clockwork.Real(), lease.Policy{Max: time.Hour}, l)
		if err != nil {
			t.Fatal(err)
		}
		return sp, l
	}
	sp, l := openSp()
	spacer := sorcer.NewSpacer("chaos-spacer", sp, sorcer.WithTaskTimeout(500*time.Millisecond))

	var tasks []sorcer.Exertion
	for i := 0; i < 4; i++ {
		tasks = append(tasks, sorcer.NewTask(fmt.Sprintf("t%d", i),
			sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 1000.0)))
	}
	job := sorcer.NewJob("chaos-restart-job",
		sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)

	done := make(chan error, 1)
	go func() {
		_, err := spacer.Service(job, nil)
		done <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for sp.Count(space.NewEntry(sorcer.EnvelopeKind)) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("envelopes never landed")
		}
		time.Sleep(time.Millisecond)
	}
	sp.Close()
	_ = l.Close()

	sp2, l2 := openSp()
	defer func() { sp2.Close(); _ = l2.Close() }()
	spacer.Rebind(sp2)
	inj := faults.New(seed(t), clockwork.Real())
	w := sorcer.NewSpaceWorker(sp2, faultyAdder("W-0", inj), "Adder")
	defer w.Stop()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed across crash recovery: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job did not complete after recovery")
	}
	for i := 0; i < 4; i++ {
		v, err := job.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+1000) {
			t.Fatalf("t%d result = %v, %v", i, v, err)
		}
	}
}

// crashGroupCommitIteration drives concurrent appenders through a
// group-committing WAL with crash points armed at both the append site
// (torn partial frames) and the sync site (a batch fsync that dies),
// then recovers and checks the group-commit durability contract: every
// acknowledged append — acked only once the batch fsync covering it
// returned — survives replay, exactly once, with no corruption.
func crashGroupCommitIteration(t *testing.T, iter int, rng *rand.Rand) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.WithSegmentLimit(1<<12))
	if err != nil {
		t.Fatalf("iter %d: open wal: %v", iter, err)
	}
	inj := faults.New(rng.Int63(), clockwork.Real())
	inj.Set("gc"+wal.FaultSiteAppend, faults.Rule{ErrorRate: 0.01})
	inj.Set("gc"+wal.FaultSiteSync, faults.Rule{ErrorRate: 0.02})
	l.SetFaultInjector(inj, "gc")
	l.ArmTornWrites(rng.Int63())

	const workers = 8
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		acked = make(map[uint64]string) // seq -> payload acked durable
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				payload := fmt.Sprintf("gc-%d-%d-%d", iter, w, i)
				seq, err := l.Append([]byte(payload))
				if err != nil {
					// The injected crash: this and every later append on
					// this worker is unacknowledged by definition.
					return
				}
				mu.Lock()
				if prev, dup := acked[seq]; dup {
					t.Errorf("iter %d: seq %d acked for both %q and %q", iter, seq, prev, payload)
				}
				acked[seq] = payload
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	_ = l.Close()

	re, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("iter %d: reopen after crash: %v (CHAOS_SEED=%d reproduces)", iter, err, seed(t))
	}
	defer re.Close()
	replayed := make(map[uint64]string)
	err = re.Replay(func(seq uint64, payload []byte) error {
		if prev, dup := replayed[seq]; dup {
			t.Errorf("iter %d: seq %d replayed twice (%q, %q)", iter, seq, prev, payload)
		}
		replayed[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("iter %d: replay: %v (CHAOS_SEED=%d reproduces)", iter, err, seed(t))
	}
	for seq, payload := range acked {
		got, ok := replayed[seq]
		if !ok {
			t.Fatalf("iter %d: acked seq %d (%q) lost in crash (CHAOS_SEED=%d reproduces)",
				iter, seq, payload, seed(t))
		}
		if got != payload {
			t.Fatalf("iter %d: seq %d recovered as %q, acked as %q (CHAOS_SEED=%d reproduces)",
				iter, seq, got, payload, seed(t))
		}
	}
}

// TestWALGroupCommitCrashRecoveryInvariants sweeps crash/recover
// iterations over concurrent group-committed appends: crashes land
// mid-batch — between records of a coalesced fsync, or in the fsync
// itself — and recovery must still replay exactly the acked prefix.
func TestWALGroupCommitCrashRecoveryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(seed(t)))
	for i := 0; i < 25; i++ {
		crashGroupCommitIteration(t, i, rng)
	}
}
