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
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/repl"
)

// The coordinator suite: chaos for the coordination plane itself. Each
// iteration stands up a replicated pair, a registry hosting the
// coordination lease, and two coordinator replicas competing for it,
// then drives a seeded mix of routed operations and control-plane
// disasters — leader kills (lease lapse) and orderly abdications,
// lease-expiry races where a stale holder's token must bounce,
// split-brain (a deposed coordinator keeps issuing decisions with its
// old token), and primary crashes the lease holder must detect. The
// failover suite's data-plane invariants must survive every sequence: no acked write lost, nothing served twice, nothing accepted
// under a stale fencing token — and additionally no decision carrying a
// superseded coordinator generation may ever change the configuration.

// coordChaos bundles one iteration's control plane.
type coordChaos struct {
	t         *testing.T
	iter      int
	chaosSeed int64
	lus       *registry.LookupService
	r         *repl.Router
	coords    []*repl.Coordinator
	nextName  int
}

// coordChaosCfg is the replicas' shared config: terms short enough that
// takeover happens within a few milliseconds of a lapse.
var coordChaosCfg = repl.CoordinatorConfig{
	Term:     60 * time.Millisecond,
	Interval: 5 * time.Millisecond,
	Misses:   3,
}

// spawn starts one more coordinator replica competing for the lease.
func (c *coordChaos) spawn() *repl.Coordinator {
	c.nextName++
	co := repl.NewCoordinator(fmt.Sprintf("replica-%d", c.nextName),
		clockwork.Real(), c.lus, c.r, coordChaosCfg)
	co.Start()
	c.coords = append(c.coords, co)
	return co
}

// leader waits for some live replica to hold the lease and returns it
// with its token.
func (c *coordChaos) leader() (*repl.Coordinator, uint64) {
	c.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, co := range c.coords {
			if tok, ok := co.Leading(); ok {
				return co, tok
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("iter %d: no coordinator won the lease (CHAOS_SEED=%d reproduces)", c.iter, c.chaosSeed)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopAll stops every replica (idempotent; dead ones no-op).
func (c *coordChaos) stopAll() {
	for _, co := range c.coords {
		co.Stop()
	}
}

// coordinatorIteration runs one seeded control-plane disaster sequence
// and checks the model at the end.
func coordinatorIteration(t *testing.T, iter int, rng *rand.Rand, chaosSeed int64) {
	a := newFailoverNode(t, "a")
	b := newFailoverNode(t, "b")
	r, err := repl.NewRouter(clockwork.Real(), a, b, repl.WithWriteWindow(10*time.Second))
	if err != nil {
		t.Fatalf("iter %d: new router: %v", iter, err)
	}
	defer func() { _ = r.Close() }()

	lus := registry.New("chaos-lus", clockwork.Real(),
		registry.WithCoordLeasePolicy(lease.Policy{Max: time.Minute, Min: time.Millisecond}))
	defer lus.Close()

	cc := &coordChaos{t: t, iter: iter, chaosSeed: chaosSeed, lus: lus, r: r}
	defer cc.stopAll()

	// Lease-expiry race prologue on some iterations: a holder acquires
	// with a term so short it lapses before the replicas even start.
	// The first replica's acquisition must dominate its token, and every
	// decision the expired holder issues with it must bounce.
	var expired *lease.FencedGrant
	if rng.Float64() < 0.3 {
		g, err := lus.AcquireCoordination(repl.DefaultCoordResource, "expired-holder", time.Millisecond)
		if err != nil {
			t.Fatalf("iter %d: expiry-race acquire: %v (CHAOS_SEED=%d reproduces)", iter, err, chaosSeed)
		}
		expired = &g
		time.Sleep(5 * time.Millisecond)
	}

	cc.spawn()
	cc.spawn()
	_, firstTok := cc.leader()

	if expired != nil {
		if firstTok <= expired.Token {
			t.Fatalf("iter %d: successor token %d does not dominate expired holder's %d (CHAOS_SEED=%d reproduces)",
				iter, firstTok, expired.Token, chaosSeed)
		}
		if err := expired.Lease.Renew(time.Second); !errors.Is(err, lease.ErrUnknownLease) {
			t.Fatalf("iter %d: expired holder renewal = %v, want ErrUnknownLease (CHAOS_SEED=%d reproduces)",
				iter, err, chaosSeed)
		}
	}

	m := newFailoverModel()
	var staleTokens []uint64 // tokens of deposed or expired coordinators
	if expired != nil {
		staleTokens = append(staleTokens, expired.Token)
	}

	// waitPrimary waits for the lease holder to promote someone after a
	// primary kill.
	waitPrimary := func(not *repl.Node) *repl.Node {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			if cur := r.Primary(); cur != not {
				return cur
			}
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: lease holder never promoted a replacement primary (CHAOS_SEED=%d reproduces)",
					iter, chaosSeed)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// reattach restores redundancy after a failover, retrying the races
	// inherent in sharing the coordinator role with the lease holder.
	reattach := func(n *repl.Node) {
		t.Helper()
		if err := n.Restart(); err != nil {
			t.Fatalf("iter %d: restart for reattach: %v (CHAOS_SEED=%d reproduces)", iter, err, chaosSeed)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			err := r.Reattach(r.Gen())
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: reattach never succeeded: %v (CHAOS_SEED=%d reproduces)", iter, err, chaosSeed)
			}
			time.Sleep(time.Millisecond)
		}
	}

	nOps := 20 + rng.Intn(25)
	for op := 0; op < nOps; op++ {
		switch roll := rng.Float64(); {
		case roll < 0.35: // routed write: coordinator churn must be invisible
			uid := m.uid()
			if _, err := r.Write(uidEntry(uid), nil, 24*time.Hour); err != nil {
				t.Fatalf("iter %d op %d: routed write failed under coordinator chaos: %v (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			m.ack(uid)

		case roll < 0.45: // acked take: must never be served again
			uid, ok := m.pick(rng)
			if !ok {
				continue
			}
			if _, err := r.Take(uidEntry(uid), nil, 5*time.Second); err != nil {
				t.Fatalf("iter %d op %d: take of acked uid=%d failed: %v (CHAOS_SEED=%d reproduces)",
					iter, op, uid, err, chaosSeed)
			}
			delete(m.present, uid)
			m.taken[uid] = true

		case roll < 0.52: // checkpoint mid-chaos
			if sp := r.Primary().CurrentSpace(); sp != nil {
				_ = sp.Checkpoint()
			}

		case roll < 0.68: // leader dies (lease lapses) or abdicates; standby takes over
			ld, tok := cc.leader()
			if rng.Float64() < 0.5 {
				ld.Kill() // no abdication: the standby waits out the term
			} else {
				ld.Stop() // orderly: the lease is cancelled, takeover is immediate
			}
			staleTokens = append(staleTokens, tok)
			cc.spawn() // keep >= 2 live replicas competing
			_, newTok := cc.leader()
			if newTok <= tok {
				t.Fatalf("iter %d op %d: successor token %d does not dominate %d (CHAOS_SEED=%d reproduces)",
					iter, op, newTok, tok, chaosSeed)
			}

		case roll < 0.80: // split-brain: a deposed coordinator keeps deciding
			if len(staleTokens) == 0 {
				continue
			}
			stale := staleTokens[rng.Intn(len(staleTokens))]
			genBefore, epochBefore, primBefore := r.Gen(), r.Epoch(), r.Primary()
			if _, err := r.Failover(stale); !errors.Is(err, repl.ErrStaleEpoch) {
				t.Fatalf("iter %d op %d: stale-token failover = %v, want ErrStaleEpoch (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			if err := r.Detach(stale); !errors.Is(err, repl.ErrStaleEpoch) {
				t.Fatalf("iter %d op %d: stale-token detach = %v, want ErrStaleEpoch (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			if r.Gen() < genBefore || r.Epoch() != epochBefore || r.Primary() != primBefore {
				t.Fatalf("iter %d op %d: a stale coordinator decision changed the configuration (CHAOS_SEED=%d reproduces)",
					iter, op, chaosSeed)
			}

		default: // primary crash: the lease holder must notice and promote
			if !r.BackupAttached() {
				continue
			}
			cur := r.Primary()
			cur.Kill()
			next := waitPrimary(cur)
			uid := m.uid()
			if _, err := r.Write(uidEntry(uid), nil, 24*time.Hour); err != nil {
				t.Fatalf("iter %d op %d: write after leader-driven failover: %v (CHAOS_SEED=%d reproduces)",
					iter, op, err, chaosSeed)
			}
			m.ack(uid)
			if r.Primary() != next {
				t.Fatalf("iter %d op %d: primary moved again without a disaster (CHAOS_SEED=%d reproduces)",
					iter, op, chaosSeed)
			}
			reattach(cur)
		}
	}

	// The adopted generation must dominate every deposed token.
	gen := r.Gen()
	for _, stale := range staleTokens {
		if gen <= stale {
			t.Fatalf("iter %d: router generation %d does not dominate deposed token %d (CHAOS_SEED=%d reproduces)",
				iter, gen, stale, chaosSeed)
		}
	}

	// Quiesce the control plane, then drain and check the data-plane
	// invariants exactly as the failover suite does.
	cc.stopAll()
	drainFailover(t, r, iter, m, chaosSeed)
}

// TestCoordinatorChaosInvariants is the control-plane suite: 200 seeded
// iterations of coordinator-kill / lease-expiry race / split-brain /
// primary-crash (25 under -short).
func TestCoordinatorChaosInvariants(t *testing.T) {
	before := runtime.NumGoroutine()
	chaosSeed := seed(t)
	iters := 200
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(chaosSeed))
	for i := 0; i < iters; i++ {
		coordinatorIteration(t, i, rng, chaosSeed)
	}
	checkGoroutines(t, before)
}
