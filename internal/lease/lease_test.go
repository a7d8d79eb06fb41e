package lease

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sensorcer/internal/clockwork"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newTable(max time.Duration) (*clockwork.Fake, *Table) {
	fc := clockwork.NewFake(epoch)
	return fc, NewTable(fc, Policy{Max: max})
}

func TestGrantClampsToPolicy(t *testing.T) {
	_, tbl := newTable(time.Minute)
	l := tbl.Grant(time.Hour)
	if got := l.Expiration.Sub(epoch); got != time.Minute {
		t.Fatalf("granted %v, want 1m", got)
	}
	l2 := tbl.Grant(0)
	if got := l2.Expiration.Sub(epoch); got != DefaultMin {
		t.Fatalf("granted %v, want DefaultMin", got)
	}
	l3 := tbl.Grant(Forever)
	if got := l3.Expiration.Sub(epoch); got != time.Minute {
		t.Fatalf("Forever granted %v, want policy max", got)
	}
}

func TestDefaultPolicyMax(t *testing.T) {
	fc := clockwork.NewFake(epoch)
	tbl := NewTable(fc, Policy{})
	l := tbl.Grant(Forever)
	if got := l.Expiration.Sub(epoch); got != DefaultMax {
		t.Fatalf("granted %v, want DefaultMax", got)
	}
}

func TestRenewExtends(t *testing.T) {
	fc, tbl := newTable(time.Minute)
	l := tbl.Grant(time.Minute)
	fc.Advance(30 * time.Second)
	if err := l.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := epoch.Add(30*time.Second + time.Minute)
	if !l.Expiration.Equal(want) {
		t.Fatalf("expiration = %v, want %v", l.Expiration, want)
	}
}

func TestRenewAfterExpiryFails(t *testing.T) {
	fc, tbl := newTable(time.Minute)
	l := tbl.Grant(time.Minute)
	fc.Advance(2 * time.Minute)
	err := l.Renew(time.Minute)
	if !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("err = %v, want ErrUnknownLease", err)
	}
	// Expired-on-renew grants are reaped immediately.
	if tbl.Len() != 0 {
		t.Fatalf("table len = %d after failed renew", tbl.Len())
	}
}

func TestCancel(t *testing.T) {
	_, tbl := newTable(time.Minute)
	l := tbl.Grant(time.Minute)
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	if tbl.Valid(l.ID) {
		t.Fatal("cancelled lease still valid")
	}
	if err := l.Cancel(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("double cancel err = %v", err)
	}
}

// TestSpentLease: a spent lease has a fresh id and Grant's clamped
// expiration, but the table never tracks it, so every Renew and Cancel
// fails as on a grant the table has already cancelled.
func TestSpentLease(t *testing.T) {
	_, tbl := newTable(time.Minute)
	granted := tbl.Grant(time.Minute)
	l := tbl.Spent(time.Hour)
	if l.ID == 0 || l.ID == granted.ID || !l.Expiration.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("spent lease %+v beside grant %d", l, granted.ID)
	}
	if tbl.Len() != 1 || tbl.Valid(l.ID) {
		t.Fatalf("table tracks the spent lease (len %d)", tbl.Len())
	}
	for i := 0; i < 2; i++ {
		if err := l.Renew(time.Minute); !errors.Is(err, ErrUnknownLease) {
			t.Fatalf("Renew = %v, want ErrUnknownLease", err)
		}
		if err := l.Cancel(); !errors.Is(err, ErrUnknownLease) {
			t.Fatalf("Cancel = %v, want ErrUnknownLease", err)
		}
	}
	if next := tbl.Grant(time.Minute); next.ID <= l.ID {
		t.Fatalf("grant after a spent lease reused id %d", next.ID)
	}
}

func TestDetachedLease(t *testing.T) {
	l := &Lease{ID: 1, Expiration: epoch.Add(time.Minute)}
	if err := l.Renew(time.Minute); err == nil {
		t.Fatal("renew on detached lease should fail")
	}
	if err := l.Cancel(); err == nil {
		t.Fatal("cancel on detached lease should fail")
	}
}

func TestExpiredAndRemaining(t *testing.T) {
	l := &Lease{Expiration: epoch.Add(time.Minute)}
	if l.Expired(epoch) {
		t.Fatal("fresh lease reported expired")
	}
	if !l.Expired(epoch.Add(time.Minute)) {
		t.Fatal("lease not expired exactly at expiration")
	}
	if got := l.Remaining(epoch.Add(30 * time.Second)); got != 30*time.Second {
		t.Fatalf("Remaining = %v", got)
	}
}

// TestSweepCallsOnEnd: Sweep ends each lapsed grant through the end
// callback with reason Expired, and a holder's Cancel ends its grant
// through the same callback with reason Canceled and returns its error.
func TestSweepCallsOnEnd(t *testing.T) {
	fc, tbl := newTable(time.Minute)
	var mu sync.Mutex
	ended := make(map[uint64]Reason)
	errRelease := errors.New("release failed")
	tbl.OnEnd(func(id uint64, r Reason) error {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := ended[id]; ok {
			t.Errorf("grant %d ended twice (%v, then %v)", id, prev, r)
		}
		ended[id] = r
		return errRelease
	})
	l1 := tbl.Grant(time.Minute)
	l2 := tbl.Grant(time.Minute)
	l3 := tbl.Grant(time.Minute)
	fc.Advance(30 * time.Second)
	if ids := tbl.Sweep(); len(ids) != 0 {
		t.Fatalf("early sweep expired %v", ids)
	}
	// Renew one so it survives; cancel another.
	if err := l1.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := l3.Cancel(); !errors.Is(err, errRelease) {
		t.Fatalf("Cancel = %v, want the end callback's error", err)
	}
	fc.Advance(45 * time.Second)
	ids := tbl.Sweep()
	if len(ids) != 1 || ids[0] != l2.ID {
		t.Fatalf("sweep expired %v, want [%d]", ids, l2.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[uint64]Reason{l2.ID: Expired, l3.ID: Canceled}
	if len(ended) != len(want) || ended[l2.ID] != Expired || ended[l3.ID] != Canceled {
		t.Fatalf("end callback got %v, want %v", ended, want)
	}
	if tbl.Len() != 1 {
		t.Fatalf("table len = %d, want 1", tbl.Len())
	}
}

// TestRetireCallsNothing: an owner's Retire drops the grant silently, and
// a later Cancel of it, like a Cancel of a spent lease, fails and releases
// nothing.
func TestRetireCallsNothing(t *testing.T) {
	_, tbl := newTable(time.Minute)
	calls := 0
	tbl.OnEnd(func(uint64, Reason) error { calls++; return nil })
	l := tbl.Grant(time.Minute)
	tbl.Retire(l.ID)
	if tbl.Valid(l.ID) || tbl.Len() != 0 {
		t.Fatal("retired grant still tracked")
	}
	if err := l.Cancel(); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Cancel after Retire = %v, want ErrUnknownLease", err)
	}
	spent := tbl.Spent(time.Minute)
	if err := spent.Cancel(); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Cancel of a spent lease = %v, want ErrUnknownLease", err)
	}
	if calls != 0 {
		t.Fatalf("end callback ran %d times", calls)
	}
}

// TestLateRenewEndsGrant: a Renew that finds its grant lapsed but not yet
// swept ends it as Sweep would, so the resource is released even though
// no Sweep ever sees the grant.
func TestLateRenewEndsGrant(t *testing.T) {
	fc, tbl := newTable(time.Minute)
	var got []Reason
	tbl.OnEnd(func(_ uint64, r Reason) error { got = append(got, r); return nil })
	l := tbl.Grant(time.Minute)
	fc.Advance(time.Minute)
	if err := l.Renew(time.Minute); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("late Renew = %v, want ErrUnknownLease", err)
	}
	if ids := tbl.Sweep(); len(ids) != 0 {
		t.Fatalf("sweep after late renew expired %v", ids)
	}
	if len(got) != 1 || got[0] != Expired {
		t.Fatalf("end callback got %v, want [expired]", got)
	}
}

// TestEndRacesFireOnce races a holder's Cancel, a Sweep at the expiry
// instant and a Renew on the same grant, 1000 times. Whichever wins, the
// end callback runs exactly once per grant, with one reason — Canceled
// exactly when Cancel succeeded — and never while the table's lock is
// held: the callback takes that lock itself (Len), which would deadlock.
func TestEndRacesFireOnce(t *testing.T) {
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		fc, tbl := newTable(time.Minute)
		var calls atomic.Int32
		var reason atomic.Value
		tbl.OnEnd(func(_ uint64, r Reason) error {
			_ = tbl.Len() // deadlocks if the caller still holds t.mu
			calls.Add(1)
			reason.Store(r)
			return nil
		})
		l := tbl.Grant(time.Minute)
		fc.Advance(time.Minute) // the expiry instant
		renewer, canceller := l, l
		start := make(chan struct{})
		var wg sync.WaitGroup
		var cancelErr error
		wg.Add(3)
		go func() { defer wg.Done(); <-start; cancelErr = canceller.Cancel() }()
		go func() { defer wg.Done(); <-start; tbl.Sweep() }()
		go func() { defer wg.Done(); <-start; _ = renewer.Renew(time.Minute) }()
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: end callback deadlocked (ran under the table's lock)", i)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("round %d: end callback ran %d times, want 1", i, n)
		}
		if got := reason.Load(); (got == Canceled) != (cancelErr == nil) {
			t.Fatalf("round %d: reason %v, Cancel returned %v", i, got, cancelErr)
		}
		if tbl.Len() != 0 {
			t.Fatalf("round %d: table still holds %d grants", i, tbl.Len())
		}
	}
}

func TestValidUnknown(t *testing.T) {
	_, tbl := newTable(time.Minute)
	if tbl.Valid(999) {
		t.Fatal("unknown grant reported valid")
	}
}

// Property: for any requested duration, the granted term is within policy
// bounds and the lease validates until just before expiry.
func TestPropertyGrantBounds(t *testing.T) {
	f := func(reqMillis int32) bool {
		fc := clockwork.NewFake(epoch)
		tbl := NewTable(fc, Policy{Max: time.Minute})
		req := time.Duration(reqMillis) * time.Millisecond
		l := tbl.Grant(req)
		term := l.Expiration.Sub(epoch)
		return term >= DefaultMin && term <= time.Minute && tbl.Valid(l.ID)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenewalManagerKeepsLeaseAlive(t *testing.T) {
	// Real clock with short durations: the manager must renew a 60ms
	// lease well past several terms.
	clock := clockwork.Real()
	tbl := NewTable(clock, Policy{Max: 60 * time.Millisecond, Min: time.Millisecond})
	l := tbl.Grant(60 * time.Millisecond)
	m := NewRenewalManager(clock)
	defer m.Stop()
	m.Manage(&l)
	time.Sleep(300 * time.Millisecond)
	if !tbl.Valid(l.ID) {
		t.Fatal("managed lease expired")
	}
	if m.Count() != 1 {
		t.Fatalf("Count = %d", m.Count())
	}
}

func TestRenewalManagerReportsFailure(t *testing.T) {
	clock := clockwork.Real()
	tbl := NewTable(clock, Policy{Max: 50 * time.Millisecond, Min: time.Millisecond})
	l := tbl.Grant(50 * time.Millisecond)
	failed := make(chan error, 1)
	m := NewRenewalManager(clock, WithFailureHandler(func(_ *Lease, err error) {
		select {
		case failed <- err:
		default:
		}
	}))
	defer m.Stop()
	// Revoke grantor-side, behind the handle's back (as a crashed or
	// rebooted grantor would); the next renewal must fail organically.
	if err := tbl.Cancel(l.ID); err != nil {
		t.Fatal(err)
	}
	m.Manage(&l)
	select {
	case err := <-failed:
		if !errors.Is(err, ErrUnknownLease) {
			t.Fatalf("failure err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure handler never called")
	}
	if m.Count() != 0 {
		t.Fatalf("failed lease still managed, Count = %d", m.Count())
	}
}

func TestRenewalManagerRelease(t *testing.T) {
	clock := clockwork.Real()
	tbl := NewTable(clock, Policy{Max: 40 * time.Millisecond, Min: time.Millisecond})
	l := tbl.Grant(40 * time.Millisecond)
	m := NewRenewalManager(clock)
	defer m.Stop()
	m.Manage(&l)
	m.Release(&l)
	time.Sleep(100 * time.Millisecond)
	tbl.Sweep()
	if tbl.Valid(l.ID) {
		t.Fatal("released lease was still renewed")
	}
}

func TestRenewalManagerStopIdempotent(t *testing.T) {
	m := NewRenewalManager(clockwork.Real())
	m.Stop()
	m.Stop() // must not panic or hang
}

func TestRenewalOptionsClamp(t *testing.T) {
	m := NewRenewalManager(clockwork.Real(), WithRequest(time.Second))
	defer m.Stop()
	if m.request != time.Second {
		t.Fatalf("request = %v, want 1s", m.request)
	}
}

func TestSweepFastPathStillCatchesExpiry(t *testing.T) {
	fc, tbl := newTable(time.Minute)
	l1 := tbl.Grant(time.Minute)
	// Fast path: nothing can be expired yet, repeated sweeps are no-ops.
	for i := 0; i < 3; i++ {
		if ids := tbl.Sweep(); ids != nil {
			t.Fatalf("early sweep = %v", ids)
		}
	}
	// Renew pushes the real expiry out; the stale lower bound must not
	// cause missed expirations once crossed.
	fc.Advance(45 * time.Second)
	if err := l1.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	fc.Advance(50 * time.Second) // crosses the stale bound, not the real expiry
	if ids := tbl.Sweep(); len(ids) != 0 {
		t.Fatalf("renewed grant swept: %v", ids)
	}
	fc.Advance(time.Minute)
	if ids := tbl.Sweep(); len(ids) != 1 {
		t.Fatalf("expired grant not swept: %v", ids)
	}
	// Empty table sweeps remain no-ops.
	if ids := tbl.Sweep(); len(ids) != 0 {
		t.Fatal("phantom expiry")
	}
}

func BenchmarkSweepFastPath(b *testing.B) {
	fc := clockwork.NewFake(epoch)
	tbl := NewTable(fc, Policy{Max: time.Hour})
	for i := 0; i < 4096; i++ {
		tbl.Grant(time.Hour)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Sweep()
	}
}

// gatedGrantor blocks Renew until released, so tests can hold a renewal
// in flight while racing a Cancel against it.
type gatedGrantor struct {
	inner   Grantor
	entered chan struct{}
	gate    chan struct{}
	renews  atomic.Int32
}

func (g *gatedGrantor) Renew(id uint64, d time.Duration) (time.Time, error) {
	g.renews.Add(1)
	close(g.entered)
	<-g.gate
	return g.inner.Renew(id, d)
}

func (g *gatedGrantor) Cancel(id uint64) error { return g.inner.Cancel(id) }

func TestCancelWaitsOutInFlightRenewal(t *testing.T) {
	clock := clockwork.NewFake(time.Unix(0, 0))
	tbl := NewTable(clock, Policy{Max: time.Minute})
	l := tbl.Grant(time.Minute)
	g := &gatedGrantor{inner: tbl, entered: make(chan struct{}), gate: make(chan struct{})}
	l.Grantor = g

	renewDone := make(chan error, 1)
	go func() { renewDone <- l.Renew(time.Minute) }()
	<-g.entered // renewal is in flight at the grantor

	cancelDone := make(chan error, 1)
	go func() { cancelDone <- l.Cancel() }()
	// Cancel must serialize behind the in-flight renewal, not interleave.
	select {
	case <-cancelDone:
		t.Fatal("Cancel completed while a renewal was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(g.gate)
	if err := <-renewDone; err != nil {
		t.Fatalf("in-flight renew: %v", err)
	}
	if err := <-cancelDone; err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The decisive postcondition: whatever the interleaving, the grant
	// is gone — the renewal did not resurrect it.
	if tbl.Valid(l.ID) {
		t.Fatal("renewal racing cancel resurrected the lease")
	}
	if tbl.Len() != 0 {
		t.Fatalf("table still holds %d grants", tbl.Len())
	}
}

func TestRenewAfterCancelRefusedLocally(t *testing.T) {
	clock := clockwork.NewFake(time.Unix(0, 0))
	tbl := NewTable(clock, Policy{Max: time.Minute})
	l := tbl.Grant(time.Minute)
	g := &gatedGrantor{inner: tbl, entered: make(chan struct{}), gate: make(chan struct{})}
	close(g.gate) // no blocking needed here
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	l.Grantor = g
	if err := l.Renew(time.Minute); !errors.Is(err, ErrCanceled) {
		t.Fatalf("renew after cancel = %v, want ErrCanceled", err)
	}
	// The refusal is local: the grantor never saw the renewal.
	if n := g.renews.Load(); n != 0 {
		t.Fatalf("grantor saw %d renewals after cancel", n)
	}
	if err := l.Cancel(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("second cancel = %v, want ErrCanceled", err)
	}
}

func TestRenewalManagerSilentOnDeliberateCancel(t *testing.T) {
	clock := clockwork.Real()
	tbl := NewTable(clock, Policy{Max: 40 * time.Millisecond, Min: time.Millisecond})
	l := tbl.Grant(40 * time.Millisecond)
	var failures atomic.Int32
	m := NewRenewalManager(clock, WithFailureHandler(func(*Lease, error) {
		failures.Add(1)
	}))
	defer m.Stop()
	m.Manage(&l)
	// Cancel through the handle: a deliberate departure racing the
	// renewal loop. The manager must drop the lease without reporting.
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled lease never dropped from management")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("deliberate cancel reported as %d failure(s)", n)
	}
	if tbl.Valid(l.ID) {
		t.Fatal("canceled lease still valid")
	}
}
