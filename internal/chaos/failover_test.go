//go:build chaos

package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/repl"
	"sensorcer/internal/sorcer"
	"sensorcer/internal/space"
	"sensorcer/internal/wal"
)

// The failover suite: model-based replication chaos. Each iteration
// drives a primary/backup pair through a seeded random mix of
// routed operations and coordinator-visible disasters — primary
// crashes with promotion, replication-link partitions, backup crashes,
// double failures with revival from the last primary's log — while a
// model tracks exactly which effects were ACKED. At the end the pair
// is drained through the router and the three replication invariants
// hold:
//
//  1. no acknowledged write is lost across any number of failovers,
//  2. no entry is served twice (an acked take stays taken on every
//     replica that can ever become primary),
//  3. no write is accepted under a stale epoch (a suspended or fenced
//     ex-primary refuses every ack until the coordinator reclaims it).
//
// Writes refused without an ack are indeterminate by definition: they
// may sit unacknowledged in an ex-primary's log and lawfully resurface
// if that log serves again (at-least-once), so the model keeps them in
// a separate "maybe" set that bounds — but never mandates — presence.

// failoverModel tracks acked, indeterminate and fencing-refused uids.
type failoverModel struct {
	nextUID int64
	present map[int64]bool // acked writes not yet acked-taken: must drain
	order   []int64        // acked uids in ack order, for deterministic picks
	maybe   map[int64]bool // unacked attempts: may or may not drain
	taken   map[int64]bool // acked takes: must never be served again
	refused map[int64]bool // refused pre-journal by the fence: must never drain
}

func newFailoverModel() *failoverModel {
	return &failoverModel{
		present: make(map[int64]bool),
		maybe:   make(map[int64]bool),
		taken:   make(map[int64]bool),
		refused: make(map[int64]bool),
	}
}

func (m *failoverModel) uid() int64 { m.nextUID++; return m.nextUID }

func (m *failoverModel) ack(uid int64) {
	m.present[uid] = true
	m.order = append(m.order, uid)
}

// pick removes and returns a seeded-random acked uid. Map iteration
// order is runtime-random, so picks go through the order slice to keep
// every run reproducible from CHAOS_SEED alone.
func (m *failoverModel) pick(rng *rand.Rand) (int64, bool) {
	if len(m.order) == 0 {
		return 0, false
	}
	i := rng.Intn(len(m.order))
	uid := m.order[i]
	m.order = append(m.order[:i], m.order[i+1:]...)
	return uid, true
}

func newFailoverNode(t *testing.T, name string) *repl.Node {
	t.Helper()
	n, err := repl.NewNode(name, clockwork.Real(), lease.Policy{Max: 24 * time.Hour},
		t.TempDir(), repl.WithWALOptions(wal.WithSyncEveryAppend(false)))
	if err != nil {
		t.Fatalf("new node %s: %v", name, err)
	}
	return n
}

// drainFailover empties the pair through the router and checks the
// model: every acked write present, nothing twice, nothing refused.
func drainFailover(t *testing.T, r *repl.Router, iter int, m *failoverModel, chaosSeed int64) {
	t.Helper()
	got := make(map[int64]bool)
	for {
		e, err := r.Take(space.NewEntry(envelopeKind), nil, 0)
		if errors.Is(err, space.ErrTimeout) {
			break
		}
		if err != nil {
			t.Fatalf("iter %d: draining pair: %v (CHAOS_SEED=%d reproduces)", iter, err, chaosSeed)
		}
		uid := int64(e.Field("uid").(float64))
		if got[uid] {
			t.Fatalf("iter %d: uid=%d drained twice (CHAOS_SEED=%d reproduces)", iter, uid, chaosSeed)
		}
		if m.taken[uid] {
			t.Fatalf("iter %d: uid=%d served again after an acked take (CHAOS_SEED=%d reproduces)", iter, uid, chaosSeed)
		}
		if m.refused[uid] {
			t.Fatalf("iter %d: uid=%d accepted under a stale epoch (CHAOS_SEED=%d reproduces)", iter, uid, chaosSeed)
		}
		if !m.present[uid] && !m.maybe[uid] {
			t.Fatalf("iter %d: uid=%d drained but never written (CHAOS_SEED=%d reproduces)", iter, uid, chaosSeed)
		}
		got[uid] = true
	}
	for uid := range m.present {
		if !got[uid] {
			t.Fatalf("iter %d: acked write uid=%d lost (CHAOS_SEED=%d reproduces)", iter, uid, chaosSeed)
		}
	}
}

// failoverIteration runs one seeded disaster sequence against a
// replicated pair and checks the model at the end.
func failoverIteration(t *testing.T, iter int, rng *rand.Rand, chaosSeed int64) {
	a := newFailoverNode(t, "a")
	b := newFailoverNode(t, "b")
	r, err := repl.NewRouter(clockwork.Real(), a, b, repl.WithWriteWindow(5*time.Second))
	if err != nil {
		t.Fatalf("iter %d: new router: %v", iter, err)
	}
	defer func() { _ = r.Close() }()

	m := newFailoverModel()
	linkDown := errors.New("chaos: replication link down")

	nOps := 30 + rng.Intn(40)
	for op := 0; op < nOps; op++ {
		switch roll := rng.Float64(); {
		case roll < 0.40: // routed write: a nil error means durable on both
			uid := m.uid()
			if _, err := r.Write(uidEntry(uid), nil, 24*time.Hour); err != nil {
				t.Fatalf("iter %d op %d: routed write failed on a healthy pair: %v (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			m.ack(uid)

		case roll < 0.50: // routed batch: one group commit, shipped as one batch
			n := 1 + rng.Intn(4)
			entries := make([]space.Entry, 0, n)
			uids := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				uid := m.uid()
				uids = append(uids, uid)
				entries = append(entries, uidEntry(uid))
			}
			if _, err := r.WriteBatch(entries, nil, 24*time.Hour); err != nil {
				t.Fatalf("iter %d op %d: routed batch failed: %v (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			for _, uid := range uids {
				m.ack(uid)
			}

		case roll < 0.60: // acked take: the entry must never be served again
			uid, ok := m.pick(rng)
			if !ok {
				continue
			}
			if _, err := r.Take(uidEntry(uid), nil, time.Second); err != nil {
				t.Fatalf("iter %d op %d: take of acked uid=%d failed: %v (CHAOS_SEED=%d reproduces)",
					iter, op, uid, err, chaosSeed)
			}
			delete(m.present, uid)
			m.taken[uid] = true

		case roll < 0.67: // checkpoint: compaction (and snapshot ship) mid-chaos
			if sp := r.Primary().CurrentSpace(); sp != nil {
				_ = sp.Checkpoint()
			}

		case roll < 0.82: // primary crash → promotion (or solo crash → revival)
			cur := r.Primary()
			if r.BackupAttached() {
				cur.Kill()
				if _, err := r.Failover(r.Gen()); err != nil {
					t.Fatalf("iter %d op %d: failover after primary kill: %v (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
				if rng.Float64() < 0.6 { // bring the corpse back as a backup
					if err := cur.Restart(); err != nil {
						t.Fatalf("iter %d op %d: restart: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
					}
					if err := r.Reattach(r.Gen()); err != nil {
						t.Fatalf("iter %d op %d: reattach: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
					}
				}
			} else {
				// Double failure: the solo primary dies. Only its own log
				// holds every ack, so recovery restarts and re-promotes IT —
				// never the detached spare.
				cur.Kill()
				if err := cur.Restart(); err != nil {
					t.Fatalf("iter %d op %d: solo restart: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
				}
				if _, err := r.Revive(r.Gen()); err != nil {
					t.Fatalf("iter %d op %d: revive: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
				}
				if rng.Float64() < 0.5 {
					_ = r.Backup().Restart() // may already be up; Reattach resyncs either way
					if err := r.Reattach(r.Gen()); err != nil {
						t.Fatalf("iter %d op %d: reattach after revive: %v (CHAOS_SEED=%d reproduces)",
							iter, op, err, chaosSeed)
					}
				}
			}

		case roll < 0.93: // promotion races: the losing primary must not ack
			if !r.BackupAttached() {
				continue
			}
			pr, bk := r.Primary(), r.Backup()
			spOld := pr.CurrentSpace()
			if rng.Float64() < 0.5 {
				// Hard partition: every ship errors out, so the primary
				// suspends itself — durable locally is not durable enough.
				inj := faults.New(rng.Int63(), clockwork.Real())
				inj.Set(repl.FaultSiteShip, faults.Rule{ErrorRate: 1, Err: linkDown})
				bk.SetFaultInjector(inj, "")
				ghost := m.uid()
				if _, err := spOld.Write(uidEntry(ghost), nil, 24*time.Hour); !errors.Is(err, repl.ErrBackupUnavailable) {
					t.Fatalf("iter %d op %d: partitioned write = %v, want ErrBackupUnavailable (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
				m.maybe[ghost] = true // journaled locally, never acked
				if rng.Float64() < 0.5 {
					// The coordinator promotes the reachable backup...
					if _, err := r.Failover(r.Gen()); err != nil {
						t.Fatalf("iter %d op %d: failover across partition: %v (CHAOS_SEED=%d reproduces)",
							iter, op, err, chaosSeed)
					}
					bk.SetFaultInjector(nil, "")
					// ...and the suspended ex-primary must refuse every ack.
					stale := m.uid()
					if _, err := spOld.Write(uidEntry(stale), nil, 24*time.Hour); err == nil {
						t.Fatalf("iter %d op %d: suspended ex-primary accepted a write (CHAOS_SEED=%d reproduces)",
							iter, op, chaosSeed)
					}
					m.refused[stale] = true
					if rng.Float64() < 0.7 {
						if err := r.Reattach(r.Gen()); err != nil {
							t.Fatalf("iter %d op %d: reattach ex-primary: %v (CHAOS_SEED=%d reproduces)",
								iter, op, err, chaosSeed)
						}
					}
				} else {
					// ...or cuts the backup loose: the primary re-recovers
					// from its own log and serves solo, so the unacked ghost
					// may lawfully resurface (it stays in maybe).
					bk.SetFaultInjector(nil, "")
					if err := r.Detach(r.Gen()); err != nil {
						t.Fatalf("iter %d op %d: detach: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
					}
				}
			} else {
				// The coordinator promotes the backup while the old primary
				// still believes it serves: its next ship bounces with a
				// stale epoch and fences it permanently.
				if _, err := r.Failover(r.Gen()); err != nil {
					t.Fatalf("iter %d op %d: promotion behind primary's back: %v (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
				ghost := m.uid()
				if _, err := spOld.Write(uidEntry(ghost), nil, 24*time.Hour); !errors.Is(err, repl.ErrStaleEpoch) {
					t.Fatalf("iter %d op %d: superseded write = %v, want ErrStaleEpoch (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
				m.maybe[ghost] = true // journaled before the ship bounced
				if !pr.IsFenced() {
					t.Fatalf("iter %d op %d: superseded primary did not fence (CHAOS_SEED=%d reproduces)",
						iter, op, chaosSeed)
				}
				stale := m.uid()
				if _, err := spOld.Write(uidEntry(stale), nil, 24*time.Hour); err == nil {
					t.Fatalf("iter %d op %d: fenced primary accepted a write (CHAOS_SEED=%d reproduces)",
						iter, op, chaosSeed)
				}
				m.refused[stale] = true
				if rng.Float64() < 0.7 {
					if err := r.Reattach(r.Gen()); err != nil {
						t.Fatalf("iter %d op %d: reattach fenced primary: %v (CHAOS_SEED=%d reproduces)",
							iter, op, err, chaosSeed)
					}
				}
			}

		default: // backup crash: the primary suspends rather than ack solo
			if !r.BackupAttached() {
				continue
			}
			pr, bk := r.Primary(), r.Backup()
			spOld := pr.CurrentSpace()
			bk.Kill()
			ghost := m.uid()
			if _, err := spOld.Write(uidEntry(ghost), nil, 24*time.Hour); !errors.Is(err, repl.ErrBackupUnavailable) {
				t.Fatalf("iter %d op %d: write with dead backup = %v, want ErrBackupUnavailable (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			m.maybe[ghost] = true
			if rng.Float64() < 0.5 {
				if err := bk.Restart(); err != nil {
					t.Fatalf("iter %d op %d: backup restart: %v (CHAOS_SEED=%d reproduces)", iter, op, err, chaosSeed)
				}
				if err := r.Reattach(r.Gen()); err != nil {
					t.Fatalf("iter %d op %d: reattach restarted backup: %v (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
			} else {
				if err := r.Detach(r.Gen()); err != nil {
					t.Fatalf("iter %d op %d: detach dead backup: %v (CHAOS_SEED=%d reproduces)",
						iter, op, err, chaosSeed)
				}
			}
		}
	}

	// When the pair ends attached, synchronous shipping means the logs
	// sit at the same position — replication never lags an ack.
	if r.BackupAttached() {
		if pp, bp := r.Primary().Log().NextSeq(), r.Backup().Log().NextSeq(); pp != bp {
			t.Fatalf("iter %d: attached logs diverge: primary %d, backup %d (CHAOS_SEED=%d reproduces)",
				iter, pp, bp, chaosSeed)
		}
	}
	drainFailover(t, r, iter, m, chaosSeed)
}

// TestFailoverReplicationInvariants is the headline suite: 200 seeded
// primary-kill / partition / promotion iterations (25 under -short).
func TestFailoverReplicationInvariants(t *testing.T) {
	before := runtime.NumGoroutine()
	chaosSeed := seed(t)
	iters := 200
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(chaosSeed))
	for i := 0; i < iters; i++ {
		failoverIteration(t, i, rng, chaosSeed)
	}
	checkGoroutines(t, before)
}

// TestFederationJobSurvivesPrimaryFailover runs a real federated job
// through a primary crash: the spacer and worker bind to the Router,
// the primary dies after the task envelopes are acked, the coordinator
// holding the coordination lease promotes the backup, and the job still
// completes with every result correct — no acked envelope lost,
// at-least-once end to end.
func TestFederationJobSurvivesPrimaryFailover(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newFailoverNode(t, "fed-a")
	b := newFailoverNode(t, "fed-b")
	r, err := repl.NewRouter(clockwork.Real(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	lus := registry.New("fed-lus", clockwork.Real(),
		registry.WithCoordLeasePolicy(lease.Policy{Max: time.Minute, Min: time.Millisecond}))
	defer lus.Close()
	coord := repl.NewCoordinator("fed-coord", clockwork.Real(), lus, r, repl.CoordinatorConfig{
		Term:     time.Second,
		Interval: 5 * time.Millisecond,
		Misses:   3,
	})
	coord.Start()
	defer coord.Stop()

	spacer := sorcer.NewSpacer("failover-spacer", r, sorcer.WithTaskTimeout(time.Second))
	var tasks []sorcer.Exertion
	for i := 0; i < 4; i++ {
		tasks = append(tasks, sorcer.NewTask(fmt.Sprintf("t%d", i),
			sorcer.Sig("Adder", "add"),
			sorcer.NewContextFrom("arg/a", float64(i), "arg/b", 2000.0)))
	}
	job := sorcer.NewJob("failover-job",
		sorcer.Strategy{Flow: sorcer.Parallel, Access: sorcer.Pull}, tasks...)

	done := make(chan error, 1)
	go func() {
		_, serr := spacer.Service(job, nil)
		done <- serr
	}()

	// Wait for the task envelopes to be acked (durable on both nodes),
	// then kill the primary before any worker has seen them.
	deadline := time.Now().Add(10 * time.Second)
	for r.Count(space.NewEntry(sorcer.EnvelopeKind)) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("task envelopes never landed")
		}
		time.Sleep(time.Millisecond)
	}
	a.Kill()

	// The worker binds after the crash: every envelope it serves can
	// only come from the promoted backup's replica.
	inj := faults.New(seed(t), clockwork.Real())
	w := sorcer.NewSpaceWorker(r, faultyAdder("W-failover", inj), "Adder")

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job failed across failover: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job did not complete after promotion")
	}
	if got := r.Primary(); got != b {
		t.Fatalf("primary after failover = %s, want b", got.Name())
	}
	for i := 0; i < 4; i++ {
		v, err := job.Context().Float(fmt.Sprintf("t%d/result/value", i))
		if err != nil || v != float64(i+2000) {
			t.Fatalf("t%d result = %v, %v", i, v, err)
		}
	}

	w.Stop()
	coord.Stop()
	lus.Close()
	if err := r.Close(); err != nil {
		t.Fatalf("router close: %v", err)
	}
	checkGoroutines(t, before)
}
