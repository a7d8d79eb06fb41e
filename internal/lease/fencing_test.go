package lease

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
)

func TestFencedAcquireSingleHolder(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	tbl := NewFencedTable(fc, Policy{Max: 10 * time.Second})

	a, err := tbl.Acquire("coord", "A", 10*time.Second)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if a.Token != 1 {
		t.Fatalf("first token = %d, want 1", a.Token)
	}
	if _, err := tbl.Acquire("coord", "B", 10*time.Second); !errors.Is(err, ErrHeld) {
		t.Fatalf("second acquire while held = %v, want ErrHeld", err)
	}
	holder, tok, ok := tbl.Holder("coord")
	if !ok || holder != "A" || tok != 1 {
		t.Fatalf("Holder = %q/%d/%v, want A/1/true", holder, tok, ok)
	}

	// Distinct names are independent resources.
	if _, err := tbl.Acquire("other", "B", 10*time.Second); err != nil {
		t.Fatalf("acquire of distinct name: %v", err)
	}
}

func TestFencedTokensIncreaseAcrossHandovers(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	tbl := NewFencedTable(fc, Policy{Max: 10 * time.Second})

	a, _ := tbl.Acquire("coord", "A", 10*time.Second)
	fc.Advance(11 * time.Second) // A lapses
	b, err := tbl.Acquire("coord", "B", 10*time.Second)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if b.Token <= a.Token {
		t.Fatalf("successor token %d not greater than predecessor %d", b.Token, a.Token)
	}

	// Orderly abdication also frees the name, and the next token still
	// dominates.
	if err := b.Lease.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	c, err := tbl.Acquire("coord", "C", 10*time.Second)
	if err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	if c.Token <= b.Token {
		t.Fatalf("token after cancel %d not greater than %d", c.Token, b.Token)
	}
}

func TestFencedDeposedRenewalFailsCleanly(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	tbl := NewFencedTable(fc, Policy{Max: 10 * time.Second})

	a, _ := tbl.Acquire("coord", "A", 10*time.Second)
	fc.Advance(11 * time.Second)
	b, _ := tbl.Acquire("coord", "B", 10*time.Second)

	// The deposed holder's renewal must not extend (or displace) the
	// successor's grant.
	if err := a.Lease.Renew(10 * time.Second); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("deposed renewal = %v, want ErrUnknownLease", err)
	}
	holder, tok, ok := tbl.Holder("coord")
	if !ok || holder != "B" || tok != b.Token {
		t.Fatalf("after deposed renewal Holder = %q/%d/%v, want B/%d/true", holder, tok, ok, b.Token)
	}
	// A live holder's renewal works.
	if err := b.Lease.Renew(10 * time.Second); err != nil {
		t.Fatalf("live renewal: %v", err)
	}
}

// gateGrantor interposes on a FencedGrant's lease so the test can
// simulate a holder partitioned from the grantor: while closed, renewals
// fail without reaching the table.
type gateGrantor struct {
	inner  Grantor
	closed atomic.Bool
}

var errGateClosed = errors.New("gate: grantor unreachable")

func (g *gateGrantor) Renew(id uint64, d time.Duration) (time.Time, error) {
	if g.closed.Load() {
		return time.Time{}, errGateClosed
	}
	return g.inner.Renew(id, d)
}

func (g *gateGrantor) Cancel(id uint64) error { return g.inner.Cancel(id) }

// TestFencedRenewalRacesCoordinatorHandover is the coordination-plane
// regression: a coordination-lease renewal (driven by a RenewalManager)
// races a coordinator handover. Once the holder is partitioned, its
// renewals fail, the manager drops and reports the lease, and the
// standby wins the name only after the grant lapsed, with a dominating
// token. The deposed grant never renews again — neither straight at the
// table nor through its own handle once the partition heals — so two
// holders are never granted at once.
func TestFencedRenewalRacesCoordinatorHandover(t *testing.T) {
	clock := clockwork.Real()
	tbl := NewFencedTable(clock, Policy{Min: 30 * time.Millisecond, Max: 30 * time.Millisecond})

	a, err := tbl.Acquire("coord", "A", 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateGrantor{inner: a.Lease.Grantor}
	a.Lease.Grantor = gate

	lost := make(chan error, 1)
	m := NewRenewalManager(clock,
		WithRequest(30*time.Millisecond),
		WithFailureHandler(func(_ *Lease, err error) {
			select {
			case lost <- err:
			default:
			}
		}))
	defer m.Stop()
	m.Manage(&a.Lease)

	// Partition A mid-term: every renewal from now on fails at the gate,
	// so the term's expiry instant is an open race with the standby.
	time.Sleep(10 * time.Millisecond)
	gate.closed.Store(true)

	// B races for the handover continuously.
	deadline := time.Now().Add(5 * time.Second)
	var b FencedGrant
	for {
		if b, err = tbl.Acquire("coord", "B", 30*time.Millisecond); err == nil {
			break
		}
		if !errors.Is(err, ErrHeld) {
			t.Fatalf("standby acquire: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never won the lease after the holder lapsed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if b.Token <= a.Token {
		t.Fatalf("handover token %d does not dominate deposed holder's %d", b.Token, a.Token)
	}
	select {
	case <-lost:
	case <-time.After(2 * time.Second):
		t.Fatal("the manager never reported the partitioned holder's lease as lost")
	}
	if n := m.Count(); n != 0 {
		t.Fatalf("manager still renews %d lease(s) after losing the grant", n)
	}

	// The deposed grant must not resurrect A's claim behind B's back,
	// whether its renewal reaches the table directly or through its own
	// handle once the partition heals.
	if _, err := tbl.Renew(a.Lease.ID, 30*time.Millisecond); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("deposed holder's direct renewal = %v, want ErrUnknownLease (never a double grant)", err)
	}
	gate.closed.Store(false)
	if err := a.Lease.Renew(30 * time.Millisecond); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("deposed holder's renewal after the partition healed = %v, want ErrUnknownLease", err)
	}
	if holder, tok, ok := tbl.Holder("coord"); !ok || holder != "B" || tok != b.Token {
		t.Fatalf("Holder = %q/%d/%v, want B/%d/true", holder, tok, ok, b.Token)
	}
}
