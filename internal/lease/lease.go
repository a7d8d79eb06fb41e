// Package lease implements Jini-style resource leasing: time-bounded grants
// that must be renewed to stay alive. Leasing is what keeps a SenSORCER
// network "healthy and robust" (paper §IV-B): a sensor service that dies
// simply stops renewing and is swept from the lookup service, so stale
// services never linger.
//
// The package has three parts:
//
//   - Lease: the client-side handle (id + expiration + grantor reference).
//   - Table: the server-side grant ledger ("landlord"), used by the lookup
//     service, tuple space, event mailbox and transaction manager.
//   - RenewalManager: a client agent that keeps a set of leases renewed,
//     playing the role of the "Lease Renewal Service" visible in the
//     paper's Fig. 2.
package lease

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
)

// Forever requests the maximum duration the grantor allows.
const Forever = time.Duration(1<<62 - 1)

// ErrUnknownLease is returned when renewing or cancelling a lease the
// grantor no longer tracks (expired, cancelled, or never granted).
var ErrUnknownLease = errors.New("lease: unknown or expired lease")

// ErrCanceled is returned by Renew on a lease whose Cancel has already
// run (or begun): a renewal racing a cancel must not resurrect the grant,
// and must not look like an unexpected failure to renewal managers.
var ErrCanceled = errors.New("lease: canceled")

// Grantor is implemented by services that issue leases (the landlord side).
type Grantor interface {
	// Renew extends the lease and returns the new expiration.
	Renew(id uint64, requested time.Duration) (time.Time, error)
	// Cancel relinquishes the lease immediately.
	Cancel(id uint64) error
}

// Lease is a granted, renewable claim on a remote resource.
type Lease struct {
	// ID identifies the grant within its grantor.
	ID uint64
	// Expiration is the absolute time the grant lapses.
	Expiration time.Time
	// Grantor renews or cancels the grant; nil for detached leases
	// (e.g. deserialized snapshots).
	Grantor Grantor
	// st serializes Renew against Cancel so a renewal in flight when the
	// holder cancels cannot resurrect the grant (and vice versa: a
	// renewal arriving after Cancel is refused locally with ErrCanceled,
	// never reaching the grantor). Copies of the handle share it; it is
	// nil on hand-built detached leases, which keep the historical
	// unsynchronized behavior.
	st *leaseState
}

// leaseState is the shared synchronization cell behind copies of one
// lease handle.
type leaseState struct {
	mu       sync.Mutex
	canceled bool
}

// Expired reports whether the lease has lapsed at the given instant.
func (l *Lease) Expired(now time.Time) bool { return !now.Before(l.Expiration) }

// Remaining returns the time left before expiry (negative if lapsed).
func (l *Lease) Remaining(now time.Time) time.Duration { return l.Expiration.Sub(now) }

// Renew asks the grantor for an extension and updates Expiration. On a
// lease whose Cancel has run it returns ErrCanceled without contacting
// the grantor.
//
//lint:blockok st.mu is per-handle: only copies of this one lease handle contend, and serializing renew against cancel across the grantor round-trip is the documented resurrection-prevention contract
func (l *Lease) Renew(requested time.Duration) error {
	if l.Grantor == nil {
		return errors.New("lease: no grantor attached")
	}
	if l.st != nil {
		l.st.mu.Lock()
		defer l.st.mu.Unlock()
		if l.st.canceled {
			return ErrCanceled
		}
	}
	exp, err := l.Grantor.Renew(l.ID, requested)
	if err != nil {
		return err
	}
	l.Expiration = exp
	return nil
}

// Cancel relinquishes the lease. It waits out any in-flight renewal of
// the same handle, then revokes the grant, so the post-condition is
// unconditional: after Cancel returns, the grant is gone.
//
//lint:blockok st.mu is per-handle: only copies of this one lease handle contend, and serializing cancel against renew across the grantor round-trip is the documented resurrection-prevention contract
func (l *Lease) Cancel() error {
	if l.Grantor == nil {
		return errors.New("lease: no grantor attached")
	}
	if l.st != nil {
		l.st.mu.Lock()
		defer l.st.mu.Unlock()
		if l.st.canceled {
			return ErrCanceled
		}
		l.st.canceled = true
	}
	return l.Grantor.Cancel(l.ID)
}

// Policy bounds the durations a Table will grant.
type Policy struct {
	// Max caps any single grant or renewal. Zero means DefaultMax.
	Max time.Duration
	// Min floors grants so pathological zero-length requests still get a
	// usable lease. Zero means DefaultMin.
	Min time.Duration
}

// Defaults for Policy fields left zero.
const (
	DefaultMax = 5 * time.Minute
	DefaultMin = 100 * time.Millisecond
)

func (p Policy) clamp(requested time.Duration) time.Duration {
	max := p.Max
	if max <= 0 {
		max = DefaultMax
	}
	min := p.Min
	if min <= 0 {
		min = DefaultMin
	}
	if requested > max {
		requested = max
	}
	if requested < min {
		requested = min
	}
	return requested
}

// Table is the landlord-side grant ledger. It is passive: expiry is
// detected by Sweep, which its owner calls lazily before reads. All
// methods are safe for concurrent use.
type Table struct {
	clock  clockwork.Clock
	policy Policy

	mu     sync.Mutex
	nextID uint64
	grants map[uint64]time.Time // id -> expiration
	// minExp is a lower bound on the earliest live expiration; Sweep
	// returns immediately while now precedes it, so hot read paths that
	// sweep defensively cost O(1) instead of a full scan. The bound may
	// be stale-low after cancels (conservative, never misses expiry).
	minExp    time.Time
	hasMinExp bool

	onExpire func(id uint64)
}

// NewTable creates a grant ledger using the clock and policy.
func NewTable(clock clockwork.Clock, policy Policy) *Table {
	return &Table{clock: clock, policy: policy, grants: make(map[uint64]time.Time)}
}

// OnExpire installs a callback invoked (synchronously from Sweep) with each
// expired grant id. Must be set before concurrent use.
func (t *Table) OnExpire(fn func(id uint64)) { t.onExpire = fn }

// Grant issues a new lease for the clamped requested duration.
func (t *Table) Grant(requested time.Duration) Lease {
	d := t.policy.clamp(requested)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	exp := t.clock.Now().Add(d)
	t.grants[id] = exp
	if !t.hasMinExp || exp.Before(t.minExp) {
		t.minExp, t.hasMinExp = exp, true
	}
	t.mu.Unlock()
	return Lease{ID: id, Expiration: exp, Grantor: t, st: &leaseState{}}
}

// Renew implements Grantor.
func (t *Table) Renew(id uint64, requested time.Duration) (time.Time, error) {
	d := t.policy.clamp(requested)
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	exp, ok := t.grants[id]
	if !ok || !now.Before(exp) {
		if ok {
			delete(t.grants, id)
		}
		return time.Time{}, fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	newExp := now.Add(d)
	t.grants[id] = newExp
	return newExp, nil
}

// Cancel implements Grantor.
func (t *Table) Cancel(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.grants[id]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	delete(t.grants, id)
	return nil
}

// Expiration returns the grant's current deadline and whether the grant
// exists and has not lapsed. Durability checkpoints use it to record the
// remaining lifetime of each lease, which recovery rebases onto the
// post-restart clock.
func (t *Table) Expiration(id uint64) (time.Time, bool) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	exp, ok := t.grants[id]
	if !ok || !now.Before(exp) {
		return time.Time{}, false
	}
	return exp, true
}

// Valid reports whether the grant exists and has not lapsed.
func (t *Table) Valid(id uint64) bool {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	exp, ok := t.grants[id]
	return ok && now.Before(exp)
}

// Len reports the number of tracked grants, expired or not.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.grants)
}

// Sweep removes lapsed grants, invoking the OnExpire callback for each, and
// returns the expired ids. While the earliest possible expiration lies in
// the future, Sweep is O(1).
func (t *Table) Sweep() []uint64 {
	now := t.clock.Now()
	t.mu.Lock()
	if t.hasMinExp && now.Before(t.minExp) {
		t.mu.Unlock()
		return nil
	}
	var expired []uint64
	var newMin time.Time
	hasNewMin := false
	for id, exp := range t.grants {
		if !now.Before(exp) {
			expired = append(expired, id)
			delete(t.grants, id)
			continue
		}
		if !hasNewMin || exp.Before(newMin) {
			newMin, hasNewMin = exp, true
		}
	}
	t.minExp, t.hasMinExp = newMin, hasNewMin
	cb := t.onExpire
	t.mu.Unlock()
	if cb != nil {
		for _, id := range expired {
			cb(id)
		}
	}
	return expired
}
