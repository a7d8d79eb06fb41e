// Coordinator replicas: the lease-fenced coordination plane.
//
// A Coordinator replica is the pair's failure detector, wrapped in a
// registry-backed coordination lease: N replicas compete for the
// single-holder lease, the winner adopts its fencing token as the
// router's coordinator generation and heartbeats the primary, and the
// standbys keep bidding so one of them takes over within a lease term
// of the holder dying. Every decision the holder makes carries its
// token, so a deposed holder that keeps acting (split-brain) bounces
// off requireCoordGen exactly like a stale primary bounces off an
// epoch check.
package repl

import (
	"errors"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sync"
)

// DefaultCoordResource is the coordination-lease name replicas compete
// for when the config leaves Resource empty.
const DefaultCoordResource = "sensorcer.space-coordinator"

// CoordinatorConfig tunes one coordinator replica.
type CoordinatorConfig struct {
	// Resource is the coordination-lease name (DefaultCoordResource if
	// empty). Replicas coordinating the same router must agree on it.
	Resource string
	// Term is the coordination-lease duration; a dead holder is
	// replaced within one term.
	Term time.Duration
	// Interval is the heartbeat probe period while leading.
	Interval time.Duration
	// Misses is how many consecutive heartbeat failures fail the pair
	// over.
	Misses int
}

// Coordinator is one replica of the coordination plane. Run competes
// for the coordination lease; while holding it the replica drives
// fenced failovers off heartbeat misses and renews at half-term, and on
// any renewal failure it stops acting immediately and rejoins the
// standby contest.
type Coordinator struct {
	name    string
	clock   clockwork.Clock
	grantor registry.CoordGrantor
	r       *Router
	cfg     CoordinatorConfig

	mu      sync.Mutex
	token   uint64
	leading bool
	killed  bool

	closed   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator creates a replica named name (the lease holder id)
// coordinating r through the grantor. Call Start to enter the contest.
func NewCoordinator(name string, clock clockwork.Clock, grantor registry.CoordGrantor, r *Router, cfg CoordinatorConfig) *Coordinator {
	if cfg.Resource == "" {
		cfg.Resource = DefaultCoordResource
	}
	if cfg.Term <= 0 {
		cfg.Term = 5 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Term / 10
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	return &Coordinator{
		name:    name,
		clock:   clock,
		grantor: grantor,
		r:       r,
		cfg:     cfg,
		closed:  make(chan struct{}),
	}
}

// Name returns the replica's holder id.
func (c *Coordinator) Name() string { return c.name }

// Leading reports whether this replica currently holds the coordination
// lease, and under which fencing token.
func (c *Coordinator) Leading() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token, c.leading
}

// Start enters the coordination contest in the background.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go c.run()
}

// Stop abdicates in an orderly way: the lease is cancelled so a standby
// wins the very next bid instead of waiting out the term.
func (c *Coordinator) Stop() { c.halt(false) }

// Kill simulates the holder dying: loops stop but the lease is left to
// lapse, so the standbys' takeover races the lease expiry — the case
// the chaos suite drills.
func (c *Coordinator) Kill() { c.halt(true) }

func (c *Coordinator) halt(kill bool) {
	c.mu.Lock()
	c.killed = c.killed || kill
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.closed) })
	c.wg.Wait()
}

// run is the replica's lifecycle: bid, lead, step down, repeat.
func (c *Coordinator) run() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		g, err := c.grantor.AcquireCoordination(c.cfg.Resource, c.name, c.cfg.Term)
		if err != nil {
			// Held by a live rival (or the grantor is unreachable):
			// stand by for a fraction of a term and bid again.
			if !c.standby(c.cfg.Term / 4) {
				return
			}
			continue
		}
		c.lead(g)
	}
}

// standby sleeps d, returning false if the replica was stopped.
func (c *Coordinator) standby(d time.Duration) bool {
	if d <= 0 {
		d = time.Millisecond
	}
	t := c.clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
		return false
	case <-t.C():
		return true
	}
}

// lead is one tenure as coordination-lease holder. It returns when the
// replica is deposed (renewal or a fenced decision bounced), the lease
// could not be adopted, or the replica is stopped.
func (c *Coordinator) lead(g lease.FencedGrant) {
	if err := c.r.AdoptCoordinator(g.Token); err != nil {
		// The router has already accepted a later holder; this token is
		// stillborn. Free the name for the live contest and stand by.
		_ = g.Lease.Cancel()
		return
	}
	c.mu.Lock()
	c.token, c.leading = g.Token, true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.leading = false
		c.mu.Unlock()
	}()

	misses := 0
	t := c.clock.NewTimer(c.cfg.Interval)
	defer t.Stop()
	renewAt := g.Lease.Expiration.Add(-c.cfg.Term / 2)
	for {
		select {
		case <-c.closed:
			c.mu.Lock()
			killed := c.killed
			c.mu.Unlock()
			if !killed {
				_ = g.Lease.Cancel()
			}
			return
		case <-t.C():
		}
		if !c.clock.Now().Before(renewAt) {
			if err := g.Lease.Renew(c.cfg.Term); err != nil {
				// Deposed or partitioned from the grantor: stop acting
				// immediately — the token may already be superseded.
				return
			}
			renewAt = g.Lease.Expiration.Add(-c.cfg.Term / 2)
		}
		var ok bool
		if misses, ok = c.probe(g.Token, misses); !ok {
			return
		}
		t.Reset(c.cfg.Interval)
	}
}

// probe heartbeats the primary and fails the pair over once it has
// missed too many in a row, under the tenure's fencing token. It returns
// the updated miss count, and false when a decision bounced as stale —
// proof a later holder has taken over.
func (c *Coordinator) probe(token uint64, misses int) (int, bool) {
	c.r.mu.Lock()
	primary, epoch, down := c.r.primary, c.r.epoch, c.r.down
	c.r.mu.Unlock()
	if down {
		return misses, true
	}
	switch err := primary.Heartbeat(epoch); {
	case errors.Is(err, ErrStaleEpoch):
		// The pair reconfigured between reading its state and the probe
		// (an attach bumped the node's epoch ahead of the published one).
		// The primary is alive enough to fence us — not a liveness miss.
		misses = 0
	case err != nil:
		misses++
	default:
		misses = 0
	}
	if misses >= c.cfg.Misses {
		misses = 0
		if _, err := c.r.Failover(token); errors.Is(err, ErrStaleEpoch) {
			return 0, false
		}
	}
	return misses, true
}
