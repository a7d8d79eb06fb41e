package event

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/ids"
	"sensorcer/internal/lease"
)

var epoch = time.Date(2009, 10, 6, 17, 26, 0, 0, time.UTC)

func newGen(t *testing.T) (*clockwork.Fake, *Generator) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	g := NewGenerator(ids.NewServiceID(), fc, lease.Policy{Max: time.Hour})
	t.Cleanup(g.Close)
	return fc, g
}

// collector is a Listener recording events.
type collector struct {
	mu  sync.Mutex
	evs []RemoteEvent
	err error
}

func (c *collector) Notify(ev RemoteEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.evs = append(c.evs, ev)
	return nil
}

func (c *collector) wait(t *testing.T, n int) []RemoteEvent {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.evs) >= n {
			out := append([]RemoteEvent{}, c.evs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d events", n)
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

func TestFireDelivers(t *testing.T) {
	_, g := newGen(t)
	c := &collector{}
	if _, err := g.Register(7, c, time.Minute); err != nil {
		t.Fatal(err)
	}
	g.Fire(7, "hello")
	evs := c.wait(t, 1)
	if evs[0].EventID != 7 || evs[0].Payload != "hello" || evs[0].SeqNo != 1 {
		t.Fatalf("event = %+v", evs[0])
	}
	if !evs[0].Timestamp.Equal(epoch) {
		t.Fatalf("timestamp = %v", evs[0].Timestamp)
	}
}

func TestEventIDFilter(t *testing.T) {
	_, g := newGen(t)
	c7, cAny := &collector{}, &collector{}
	g.Register(7, c7, time.Minute)
	g.Register(AnyEvent, cAny, time.Minute)
	g.Fire(7, nil)
	g.Fire(8, nil)
	cAny.wait(t, 2)
	time.Sleep(10 * time.Millisecond)
	if c7.count() != 1 {
		t.Fatalf("filtered listener got %d events, want 1", c7.count())
	}
}

func TestSeqNoPerRegistration(t *testing.T) {
	_, g := newGen(t)
	c := &collector{}
	g.Register(AnyEvent, c, time.Minute)
	for i := 0; i < 5; i++ {
		g.Fire(1, i)
	}
	evs := c.wait(t, 5)
	for i, ev := range evs {
		if ev.SeqNo != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, ev.SeqNo)
		}
		if ev.Payload != i {
			t.Fatalf("order violated: payload[%d] = %v", i, ev.Payload)
		}
	}
}

func TestRegistrationLeaseExpiry(t *testing.T) {
	fc, g := newGen(t)
	c := &collector{}
	g.Register(AnyEvent, c, time.Minute)
	fc.Advance(2 * time.Minute)
	g.Fire(1, nil) // sweeps first
	time.Sleep(10 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("expired registration received event")
	}
	if g.Count() != 0 {
		t.Fatalf("Count = %d", g.Count())
	}
}

func TestCancelRegistration(t *testing.T) {
	_, g := newGen(t)
	c := &collector{}
	l, _ := g.Register(AnyEvent, c, time.Minute)
	if err := l.Cancel(); err != nil {
		t.Fatal(err)
	}
	g.Fire(1, nil)
	time.Sleep(10 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("cancelled registration received event")
	}
	if g.Count() != 0 {
		t.Fatalf("Count = %d after cancel", g.Count())
	}
}

func TestFailingListenerDropped(t *testing.T) {
	_, g := newGen(t)
	c := &collector{err: errors.New("unreachable")}
	g.Register(AnyEvent, c, time.Minute)
	for i := 0; i < maxFailures; i++ {
		g.Fire(1, i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.Count() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g.Count() != 0 {
		t.Fatal("failing listener never dropped")
	}
}

func TestRegisterNilListener(t *testing.T) {
	_, g := newGen(t)
	if _, err := g.Register(1, nil, time.Minute); err == nil {
		t.Fatal("nil listener accepted")
	}
}

func TestGeneratorCloseIdempotent(t *testing.T) {
	_, g := newGen(t)
	c := &collector{}
	g.Register(AnyEvent, c, time.Minute)
	g.Close()
	g.Close()
	if _, err := g.Register(AnyEvent, c, time.Minute); err == nil {
		t.Fatal("register after close accepted")
	}
}

func TestListenerFunc(t *testing.T) {
	called := false
	l := ListenerFunc(func(RemoteEvent) error { called = true; return nil })
	if err := l.Notify(RemoteEvent{}); err != nil || !called {
		t.Fatal("ListenerFunc adapter broken")
	}
}

// --- Mailbox ---

func newMailbox(t *testing.T) (*clockwork.Fake, *Mailbox) {
	t.Helper()
	fc := clockwork.NewFake(epoch)
	return fc, NewMailbox(fc, lease.Policy{Max: time.Hour}, 8)
}

func TestBoxDrainPull(t *testing.T) {
	_, mb := newMailbox(t)
	box, _ := mb.Register(time.Minute)
	for i := 1; i <= 5; i++ {
		box.Notify(RemoteEvent{SeqNo: uint64(i)})
	}
	first, _ := box.DrainWithDropped(2)
	if len(first) != 2 || first[0].SeqNo != 1 || first[1].SeqNo != 2 {
		t.Fatalf("DrainWithDropped(2) = %v", first)
	}
	rest, _ := box.DrainWithDropped(0)
	if len(rest) != 3 || rest[0].SeqNo != 3 {
		t.Fatalf("DrainWithDropped(0) = %v", rest)
	}
	if again, _ := box.DrainWithDropped(0); len(again) != 0 {
		t.Fatal("events remained after full drain")
	}
}

func TestBoxCapacityDropsOldest(t *testing.T) {
	_, mb := newMailbox(t) // cap 8
	box, _ := mb.Register(time.Minute)
	for i := 1; i <= 10; i++ {
		box.Notify(RemoteEvent{SeqNo: uint64(i)})
	}
	evs, dropped := box.DrainWithDropped(0)
	if len(evs) != 8 || dropped != 2 || box.Dropped() != 2 {
		t.Fatalf("drained %d, dropped %d (cumulative %d), want 8 and 2", len(evs), dropped, box.Dropped())
	}
	if evs[0].SeqNo != 3 || evs[len(evs)-1].SeqNo != 10 {
		t.Fatalf("kept wrong window: %v..%v", evs[0].SeqNo, evs[len(evs)-1].SeqNo)
	}
}

// TestBoxDrainWithDroppedRevealsGap: the dropped count a drain reports
// matches the SeqNo discontinuity in the drained sequence, and resets
// between drains.
func TestBoxDrainWithDroppedRevealsGap(t *testing.T) {
	_, mb := newMailbox(t) // cap 8
	box, _ := mb.Register(time.Minute)
	for i := 1; i <= 11; i++ {
		box.Notify(RemoteEvent{SeqNo: uint64(i)})
	}
	evs, dropped := box.DrainWithDropped(0)
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	// The gap at the front of the window equals the dropped count: the
	// consumer's last known SeqNo (0) to the first drained one.
	if gap := evs[0].SeqNo - 1; gap != dropped {
		t.Fatalf("SeqNo discontinuity %d does not match dropped %d", gap, dropped)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].SeqNo != evs[i-1].SeqNo+1 {
			t.Fatalf("unexpected interior gap at %d: %v -> %v", i, evs[i-1].SeqNo, evs[i].SeqNo)
		}
	}
	// Already-reported drops are not re-reported.
	box.Notify(RemoteEvent{SeqNo: 12})
	evs, dropped = box.DrainWithDropped(0)
	if dropped != 0 || len(evs) != 1 || evs[0].SeqNo != 12 {
		t.Fatalf("second drain = %d events, dropped %d", len(evs), dropped)
	}
	// Cumulative accounting is untouched.
	if box.Dropped() != 3 {
		t.Fatalf("cumulative Dropped = %d, want 3", box.Dropped())
	}
}

func TestBoxLeaseExpiry(t *testing.T) {
	fc, mb := newMailbox(t)
	box, _ := mb.Register(time.Minute)
	box.Notify(RemoteEvent{SeqNo: 1})
	fc.Advance(2 * time.Minute)
	mb.Sweep()
	if err := box.Notify(RemoteEvent{SeqNo: 2}); !errors.Is(err, ErrBoxExpired) {
		t.Fatalf("Notify on expired box err = %v", err)
	}
	if evs, _ := box.DrainWithDropped(0); len(evs) != 0 {
		t.Fatalf("expired box still holds %v", evs)
	}
	if mb.BoxCount() != 0 {
		t.Fatalf("BoxCount = %d", mb.BoxCount())
	}
}

func TestMailboxGeneratorIntegration(t *testing.T) {
	// End-to-end: generator -> box -> a consumer draining what it stored.
	fc := clockwork.NewFake(epoch)
	g := NewGenerator(ids.NewServiceID(), fc, lease.Policy{Max: time.Hour})
	defer g.Close()
	mb := NewMailbox(fc, lease.Policy{Max: time.Hour}, 0)
	box, _ := mb.Register(time.Minute)
	g.Register(AnyEvent, box, time.Minute)

	g.Fire(1, "offline-1")
	g.Fire(1, "offline-2")
	var evs []RemoteEvent
	deadline := time.Now().Add(2 * time.Second)
	for len(evs) < 2 && time.Now().Before(deadline) {
		got, dropped := box.DrainWithDropped(0)
		if dropped != 0 {
			t.Fatalf("dropped %d below capacity", dropped)
		}
		evs = append(evs, got...)
		time.Sleep(time.Millisecond)
	}
	if len(evs) != 2 || evs[0].Payload != "offline-1" || evs[1].Payload != "offline-2" {
		t.Fatalf("drained %v", evs)
	}
}

func TestMailboxDefaultCapacity(t *testing.T) {
	mb := NewMailbox(clockwork.NewFake(epoch), lease.Policy{Max: time.Hour}, 0)
	box, _ := mb.Register(time.Minute)
	if box.cap != DefaultBoxCapacity {
		t.Fatalf("cap = %d", box.cap)
	}
}
