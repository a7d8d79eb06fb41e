package repl

import (
	"errors"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/space"
)

// coordTerm keeps coordination tests snappy while leaving headroom for
// slow CI machines.
const coordTerm = 100 * time.Millisecond

// newCoordRegistry hosts coordination leases for the tests.
func newCoordRegistry(t *testing.T) *registry.LookupService {
	t.Helper()
	l := registry.New("lus", clockwork.Real(),
		registry.WithCoordLeasePolicy(lease.Policy{Max: time.Minute, Min: time.Millisecond}))
	t.Cleanup(l.Close)
	return l
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startCoordinator(t *testing.T, name string, lus *registry.LookupService, r *Router) *Coordinator {
	t.Helper()
	c := NewCoordinator(name, clockwork.Real(), lus, r, CoordinatorConfig{
		Term:     coordTerm,
		Interval: 5 * time.Millisecond,
		Misses:   3,
	})
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestCoordinatorLeaderRunsFailover(t *testing.T) {
	r, a, b := newTestRouter(t)
	lus := newCoordRegistry(t)
	c := startCoordinator(t, "coord-1", lus, r)

	waitFor(t, "leadership", func() bool { _, ok := c.Leading(); return ok })
	if _, err := r.Write(space.NewEntry("job", "n", float64(1)), nil, time.Hour); err != nil {
		t.Fatalf("write: %v", err)
	}
	a.Kill()
	waitFor(t, "failover to backup", func() bool { return r.Primary() == b })
	// The acked write survived the promotion.
	if _, err := r.Read(space.NewEntry("job", "n", float64(1)), nil, time.Second); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	tok, _ := c.Leading()
	if got := r.Gen(); got != tok {
		t.Fatalf("router gen = %d, want leader token %d", got, tok)
	}
}

func TestStandbyTakesOverAfterLeaderDies(t *testing.T) {
	r, _, _ := newTestRouter(t)
	lus := newCoordRegistry(t)
	c1 := startCoordinator(t, "coord-1", lus, r)
	c2 := startCoordinator(t, "coord-2", lus, r)

	waitFor(t, "a first leader", func() bool {
		_, ok1 := c1.Leading()
		_, ok2 := c2.Leading()
		return ok1 || ok2
	})
	leader, standby := c1, c2
	if _, ok := c2.Leading(); ok {
		leader, standby = c2, c1
	}
	oldTok, _ := leader.Leading()

	// An unclean death: the lease lapses and the standby must win the
	// next contest within a term or two.
	leader.Kill()
	waitFor(t, "standby takeover", func() bool { _, ok := standby.Leading(); return ok })
	newTok, _ := standby.Leading()
	if newTok <= oldTok {
		t.Fatalf("successor token %d does not dominate deposed %d", newTok, oldTok)
	}
	if got := r.Gen(); got != newTok {
		t.Fatalf("router gen = %d, want %d", got, newTok)
	}
}

func TestOrderlyStopHandsOverImmediately(t *testing.T) {
	r, _, _ := newTestRouter(t)
	lus := newCoordRegistry(t)
	c1 := startCoordinator(t, "coord-1", lus, r)
	waitFor(t, "leadership", func() bool { _, ok := c1.Leading(); return ok })
	c1.Stop()

	// The lease was cancelled, so a fresh replica wins its first bid
	// without waiting out the term.
	c2 := startCoordinator(t, "coord-2", lus, r)
	waitFor(t, "successor leadership", func() bool { _, ok := c2.Leading(); return ok })
}

// pairConfig is the configuration a coordinator decision may change.
type pairConfig struct {
	gen, epoch uint64
	primary    *Node
	attached   bool
}

func configOf(r *Router) pairConfig {
	return pairConfig{gen: r.Gen(), epoch: r.Epoch(), primary: r.Primary(), attached: r.BackupAttached()}
}

func TestDeposedCoordinatorDecisionsBounce(t *testing.T) {
	r, _, b := newTestRouter(t)
	if err := r.AdoptCoordinator(2); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	// Every coordinator op under an older generation bounces stale and
	// leaves the configuration exactly as it was.
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Failover", func() error { _, err := r.Failover(1); return err }},
		{"Reattach", func() error { return r.Reattach(1) }},
		{"Revive", func() error { _, err := r.Revive(1); return err }},
		{"Detach", func() error { return r.Detach(1) }},
	} {
		before := configOf(r)
		if err := op.run(); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("stale %s = %v, want ErrStaleEpoch", op.name, err)
		}
		if after := configOf(r); after != before {
			t.Fatalf("stale %s changed the configuration: %+v -> %+v", op.name, before, after)
		}
	}
	// An adoption moving backwards bounces too.
	if err := r.AdoptCoordinator(1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale adopt = %v, want ErrStaleEpoch", err)
	}
	// The current generation still works, and bumps the epoch.
	before := r.Epoch()
	if _, err := r.Failover(2); err != nil {
		t.Fatalf("current-gen Failover: %v", err)
	}
	if r.Primary() != b || r.Epoch() != before+1 {
		t.Fatal("current-gen failover did not take effect")
	}
}

// TestMonitorPromotesAfterMissedHeartbeats: a primary that is alive but
// fails its heartbeats is failed over by the lease holder, and the
// promotion fences it — its next write cannot be acknowledged.
func TestMonitorPromotesAfterMissedHeartbeats(t *testing.T) {
	r, a, b := newTestRouter(t)
	if _, err := r.Write(space.NewEntry("job", "n", int64(1)), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	old := a.CurrentSpace()
	inj := faults.New(1, clockwork.Real())
	inj.Set(FaultSiteHeartbeat, faults.Rule{ErrorRate: 1, Err: faults.ErrInjected})
	a.SetFaultInjector(inj, "")
	startCoordinator(t, "coord-1", newCoordRegistry(t), r)

	waitFor(t, "failover off missed heartbeats", func() bool { return r.Primary() == b })
	if _, err := old.Write(space.NewEntry("job", "n", int64(2)), nil, time.Hour); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("write on the deposed primary = %v, want ErrStaleEpoch", err)
	}
	if _, err := r.Take(space.NewEntry("job"), nil, time.Second); err != nil {
		t.Fatalf("take after coordinator-driven failover: %v", err)
	}
}
