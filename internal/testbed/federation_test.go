package testbed

import (
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/remote"
	"sensorcer/internal/repl"
	"sensorcer/internal/space"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederationMultiProcess is the multi-process system test: a
// lookup-service process hosting the registrar and the coordination
// leases, a backup process hosting a replica, and the test process
// hosting the primaries plus two coordinator replicas that compete for
// the coordination lease over srpc. It exercises cross-process journal
// shipping (snapshot resync + tail), leader-driven failover, and
// standby takeover with a dominating fencing token. Skipped under
// -short (it builds and spawns real processes).
func TestFederationMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process federation skipped in -short mode")
	}
	fed, err := StartFederation(FederationConfig{Shards: []string{"s0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()

	clock := clockwork.Real()
	pol := lease.Policy{Max: time.Minute}

	// Cross-process journal shipping: the primary lives here, the
	// backup in a child process; the attach resyncs it with a snapshot
	// and chunked tail over srpc, then ships synchronously.
	follower, err := remote.NewReplicationClient(
		remote.ProxyDesc{Kind: remote.ReplicationKind, Locator: fed.ShardAddrs[0], Service: "s0"},
		2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	primary, err := repl.NewNode("s0-primary", clock, pol, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sp, err := primary.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sp.Write(space.NewEntry("reading", "seq", float64(i)), nil, time.Minute); err != nil {
			t.Fatalf("pre-attach write %d: %v", i, err)
		}
	}
	if _, err := primary.AttachBackup(2, follower, true); err != nil {
		t.Fatalf("cross-process resync: %v", err)
	}
	for i := 20; i < 40; i++ {
		if _, err := sp.Write(space.NewEntry("reading", "seq", float64(i)), nil, time.Minute); err != nil {
			t.Fatalf("replicated write %d: %v", i, err)
		}
	}
	if err := follower.Heartbeat(2); err != nil {
		t.Fatalf("heartbeat to child backup: %v", err)
	}

	// Coordination plane across processes: two coordinator replicas in
	// this process compete for the lease hosted by the child lookup
	// service, managing an in-process pair.
	ga, err := remote.NewCoordinationClient(fed.LUSAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ga.Close()
	gb, err := remote.NewCoordinationClient(fed.LUSAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer gb.Close()

	na, err := repl.NewNode("r0-a", clock, pol, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := repl.NewNode("r0-b", clock, pol, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	router, err := repl.NewRouter(clock, na, nb)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	cfg := repl.CoordinatorConfig{Term: 300 * time.Millisecond, Interval: 15 * time.Millisecond, Misses: 3}
	ca := repl.NewCoordinator("replica-a", clock, ga, router, cfg)
	cb := repl.NewCoordinator("replica-b", clock, gb, router, cfg)
	ca.Start()
	cb.Start()
	defer ca.Stop()
	defer cb.Stop()

	var leader, standby *repl.Coordinator
	waitUntil(t, "a coordinator to win the remote lease", func() bool {
		if _, ok := ca.Leading(); ok {
			leader, standby = ca, cb
			return true
		}
		if _, ok := cb.Leading(); ok {
			leader, standby = cb, ca
			return true
		}
		return false
	})
	firstTok, _ := leader.Leading()
	waitUntil(t, "the router to adopt the leader's token", func() bool {
		return router.Gen() == firstTok
	})

	// The lease holder notices a dead primary and promotes the backup;
	// routed operations ride through the failover.
	na.Kill()
	waitUntil(t, "leader-driven failover to the backup", func() bool {
		return router.Primary() == nb
	})
	if _, err := router.Write(space.NewEntry("job", "id", float64(1)), nil, time.Minute); err != nil {
		t.Fatalf("write after failover: %v", err)
	}

	// Kill the leader without abdication: its lease lapses in the child
	// process and the standby takes over with a dominating token.
	leader.Kill()
	waitUntil(t, "standby takeover with a dominating token", func() bool {
		tok, ok := standby.Leading()
		return ok && tok > firstTok
	})
	newTok, _ := standby.Leading()
	waitUntil(t, "the router to adopt the new token", func() bool {
		return router.Gen() == newTok
	})
}
