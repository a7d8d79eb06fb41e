package lease

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sensorcer/internal/clockwork"
)

// ErrHeld is returned by FencedTable.Acquire while another holder's grant
// on the same name is still live. The caller is a standby: it retries
// after a lease term and wins only once the holder stops renewing.
var ErrHeld = errors.New("lease: resource is held")

// FencedGrant is one acquisition of a single-holder resource: the
// renewable lease that keeps the claim alive plus the fencing token that
// orders this holder against every holder before and after it.
type FencedGrant struct {
	// Token is strictly greater than the token of every earlier grant on
	// the same name — downstream state machines compare tokens, never
	// wall-clocks, to reject a deposed holder's late decisions.
	Token uint64
	// Holder echoes the name the claimant passed to Acquire.
	Holder string
	// Lease keeps the claim alive; letting it lapse deposes the holder.
	Lease Lease
}

// fencedRecord is the ledger entry for one named resource.
type fencedRecord struct {
	holder  string
	token   uint64
	leaseID uint64
	exp     time.Time
}

// FencedTable is a landlord for single-holder resources: at most one live
// grant per name, each grant carrying a fencing token that strictly
// increases across successive holders of that name. It is the
// coordination-lease primitive — a coordinator replica that wins Acquire
// is the holder until it stops renewing, and its token fences every
// decision it publishes.
//
// Unlike Table, grants are keyed by resource name, so a renewal by a
// deposed holder (its record replaced by a later Acquire) fails with
// ErrUnknownLease instead of resurrecting the old claim.
type FencedTable struct {
	clock  clockwork.Clock
	policy Policy

	mu      sync.Mutex
	nextID  uint64
	nextTok uint64
	records map[string]*fencedRecord
}

// NewFencedTable creates a single-holder grant ledger using the clock and
// policy.
func NewFencedTable(clock clockwork.Clock, policy Policy) *FencedTable {
	return &FencedTable{clock: clock, policy: policy, records: make(map[string]*fencedRecord)}
}

// Acquire claims the named resource for holder. While an earlier grant is
// live it fails with ErrHeld; once the previous holder's lease has lapsed
// (or was cancelled) the claim succeeds with a strictly greater fencing
// token. Re-acquiring a name the same holder already owns also mints a
// fresh token — the old handle is deposed, exactly as if another replica
// had won.
func (t *FencedTable) Acquire(name, holder string, requested time.Duration) (FencedGrant, error) {
	d := t.policy.clamp(requested)
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.records[name]; ok && now.Before(rec.exp) {
		return FencedGrant{}, fmt.Errorf("%w: %q held by %q (token %d)", ErrHeld, name, rec.holder, rec.token)
	}
	t.nextID++
	t.nextTok++
	rec := &fencedRecord{holder: holder, token: t.nextTok, leaseID: t.nextID, exp: now.Add(d)}
	t.records[name] = rec
	return FencedGrant{
		Token:  rec.token,
		Holder: holder,
		Lease:  Lease{ID: rec.leaseID, Expiration: rec.exp, Grantor: t, st: &leaseState{}},
	}, nil
}

// Holder reports the live holder and token of the named resource, if any.
func (t *FencedTable) Holder(name string) (holder string, token uint64, ok bool) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, exists := t.records[name]
	if !exists || !now.Before(rec.exp) {
		return "", 0, false
	}
	return rec.holder, rec.token, true
}

// Token returns the highest fencing token ever issued (across all names):
// any token a future Acquire mints will exceed it.
func (t *FencedTable) Token() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextTok
}

// findLocked resolves a lease id to its record, or nil if the id no
// longer names the live grant (deposed, expired, or cancelled).
func (t *FencedTable) findLocked(id uint64) *fencedRecord {
	for _, rec := range t.records {
		if rec.leaseID == id {
			return rec
		}
	}
	return nil
}

// Renew implements Grantor: it extends the grant only while the id still
// names the resource's current record — a deposed holder's renewal fails
// with ErrUnknownLease and can never displace its successor.
func (t *FencedTable) Renew(id uint64, requested time.Duration) (time.Time, error) {
	d := t.policy.clamp(requested)
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.findLocked(id)
	if rec == nil || !now.Before(rec.exp) {
		return time.Time{}, fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	rec.exp = now.Add(d)
	return rec.exp, nil
}

// Cancel implements Grantor: an orderly abdication. The resource becomes
// immediately acquirable; the fencing token sequence keeps increasing, so
// nothing the departing holder published can outrank its successor.
func (t *FencedTable) Cancel(id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, rec := range t.records {
		if rec.leaseID == id {
			delete(t.records, name)
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrUnknownLease, id)
}

var _ Grantor = (*FencedTable)(nil)
