package remote

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
)

func newSubHub(t *testing.T) (*srpc.Server, *subscribe.Hub) {
	t.Helper()
	server := srpc.NewServer()
	hub := subscribe.NewHub()
	ServeSubscriptions(server, hub)
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Close()
		hub.Close()
	})
	return server, hub
}

func subDial(t *testing.T, server *srpc.Server) *srpc.Client {
	t.Helper()
	c, err := srpc.Dial(server.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func pubReading(sensor string, v float64) probe.Reading {
	return probe.Reading{Sensor: sensor, Kind: "temperature", Unit: "celsius", Value: v, Timestamp: epoch}
}

func TestSubscriptionEndToEnd(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The open races the first publish: wait for the hub to see it.
	waitFor(t, func() bool { return hub.Count() == 1 })
	hub.Publish(pubReading("rtd-1", 21.5))
	u, err := sub.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Readings) != 1 || u.Readings[0].Sensor != "rtd-1" || u.Readings[0].Value != 21.5 {
		t.Fatalf("update = %+v", u)
	}
	if u.Readings[0].Unit != "celsius" || u.Readings[0].Kind != "temperature" {
		t.Fatalf("meta lost: %+v", u.Readings[0])
	}
}

func TestSubscriptionFilteredDelivery(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{Sensors: []string{"rtd-1"}, Expr: "value > 20"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, func() bool { return hub.Count() == 1 })
	hub.Publish(pubReading("rtd-2", 30)) // wrong sensor
	hub.Publish(pubReading("rtd-1", 10)) // predicate fails
	hub.Publish(pubReading("rtd-1", 25)) // delivered
	u, err := sub.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Readings) != 1 || u.Readings[0].Value != 25 {
		t.Fatalf("update = %+v", u)
	}
}

func TestSubscriptionDuplicateTokenRejected(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, func() bool { return hub.Count() == 1 })
	// A second subscription with the same token: the server rejects the
	// open and the error surfaces on the first Recv.
	st, err := c.OpenStream(SubscribeMethod, subscribeParams{Token: sub.Token()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var re *srpc.RemoteError
	w := subscribe.WireUpdate{U: &subscribe.Update{}, Dec: &subscribe.UpdateDecoder{}}
	if err := st.Recv(&w, 2*time.Second); !errors.As(err, &re) {
		t.Fatalf("duplicate token err = %v, want RemoteError", err)
	}
}

// TestSubscriptionDurableResume: disconnect, publish into the parked
// backlog, resume on a new connection, catch up with gap accounting.
func TestSubscriptionDurableResume(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{}, WithDurable(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	token := sub.Token()
	waitFor(t, func() bool { return hub.Count() == 1 })
	hub.Publish(pubReading("rtd-1", 1))
	if _, err := sub.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close() // drop the whole connection mid-subscription
	// The hub parks (stays registered) rather than cancelling.
	time.Sleep(50 * time.Millisecond)
	if hub.Count() != 1 {
		t.Fatalf("count after disconnect = %d, want 1 (parked)", hub.Count())
	}
	hub.Publish(pubReading("rtd-1", 2))
	hub.Publish(pubReading("rtd-2", 3))

	c2 := subDial(t, server)
	sub2, err := ResumeSubscription(c2, token)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	u, err := sub2.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range u.Readings {
		got[r.Sensor] = r.Value
	}
	if got["rtd-1"] != 2 || got["rtd-2"] != 3 {
		t.Fatalf("catch-up update = %+v", u.Readings)
	}
}

// TestSubscriptionResumeAfterParkLease: once a parked subscription's
// lease has ended, with nothing published meanwhile, a resume is refused
// with subscribe.ErrUnknownToken, which a subscriber can tell from a
// transport error.
func TestSubscriptionResumeAfterParkLease(t *testing.T) {
	clock := clockwork.NewFake(epoch)
	server := srpc.NewServer()
	hub := subscribe.NewHub(subscribe.WithHubClock(clock))
	ServeSubscriptions(server, hub)
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Close()
		hub.Close()
	})
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{}, WithDurable(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub.Count() == 1 })
	c.Close()
	// The park lease starts when the hub notices the disconnect; move
	// the clock on until it has ended.
	waitFor(t, func() bool { clock.Advance(time.Second); return hub.Count() == 0 })
	sub2, err := ResumeSubscription(subDial(t, server), sub.Token())
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if _, err := sub2.Recv(2 * time.Second); !errors.Is(err, subscribe.ErrUnknownToken) {
		t.Fatalf("resume after the park's lease: %v, want ErrUnknownToken", err)
	}
}

// TestSubscriptionEphemeralDisconnectCancels: a non-durable subscriber's
// disconnect removes the subscription.
func TestSubscriptionEphemeralDisconnectCancels(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	if _, err := Subscribe(c, subscribe.Filter{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub.Count() == 1 })
	c.Close()
	waitFor(t, func() bool { return hub.Count() == 0 })
}

// TestSubscriptionSlowConsumerConflation: fill the stream window, keep
// publishing, then drain — delivery resumes with latest-per-key values
// and a dropped count, and the publisher never blocked.
func TestSubscriptionSlowConsumerConflation(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{}, WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, func() bool { return hub.Count() == 1 })
	// Publish far past the window without consuming.
	for i := 1; i <= 200; i++ {
		hub.Publish(pubReading("rtd-1", float64(i)))
	}
	// Drain: the stream delivers at most window-many stale updates, then
	// a conflated one carrying the latest value and the loss count.
	deadline := time.Now().Add(5 * time.Second)
	var last subscribe.Update
	for last.Readings == nil || last.Readings[0].Value != 200 {
		if time.Now().After(deadline) {
			t.Fatalf("never reached latest value; last = %+v", last)
		}
		u, err := sub.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		last = u
	}
	if last.Dropped == 0 {
		t.Fatalf("conflation under stall reported no drops: %+v", last)
	}
}

func TestSubscriptionServerCloseEndsStream(t *testing.T) {
	server, hub := newSubHub(t)
	c := subDial(t, server)
	sub, err := Subscribe(c, subscribe.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hub.Count() == 1 })
	hub.Cancel(sub.Token())
	if _, err := sub.Recv(2 * time.Second); err != io.EOF && !errors.Is(err, srpc.ErrConnClosed) {
		t.Fatalf("recv after cancel = %v, want EOF", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// timerCounter is a fake clock that counts the timers armed on it.
type timerCounter struct {
	*clockwork.Fake
	armed atomic.Int64
}

func (c *timerCounter) NewTimer(d time.Duration) clockwork.Timer {
	c.armed.Add(1)
	return c.Fake.NewTimer(d)
}

// TestPublishArmsNoGatherTimer: a Publish delivering inline to 64
// streams of one connection queues every frame without waking the
// connection's flusher, so its one wake-up is the Flush that ends the
// Publish. On the server's fake clock, never advanced, no gather timer
// is ever armed — one per Publish when the first frame kicked the
// flusher lazily — and every frame still arrives.
func TestPublishArmsNoGatherTimer(t *testing.T) {
	const streams, publishes = 64, 20
	clock := &timerCounter{Fake: clockwork.NewFake(epoch)}
	server := srpc.NewServer()
	server.SetClock(clock)
	hub := subscribe.NewHub()
	ServeSubscriptions(server, hub)
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		server.Close()
		hub.Close()
	})
	c := subDial(t, server)
	subs := make([]*SubscriberClient, streams)
	for i := range subs {
		// A window past the run keeps every delivery inline.
		sub, err := Subscribe(c, subscribe.Filter{}, WithWindow(2*publishes))
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	waitFor(t, func() bool { return hub.Count() == streams })
	for p := 1; p <= publishes; p++ {
		hub.Publish(pubReading("rtd-1", float64(p)))
		for i, sub := range subs {
			u, err := sub.Recv(2 * time.Second)
			if err != nil {
				t.Fatalf("publish %d, stream %d: %v", p, i, err)
			}
			if u.SeqNo != uint64(p) || len(u.Readings) != 1 || u.Readings[0].Value != float64(p) {
				t.Fatalf("publish %d, stream %d: update %+v", p, i, u)
			}
		}
	}
	if n := clock.armed.Load(); n != 0 {
		t.Fatalf("%d publishes to %d streams armed %d gather timers, want 0", publishes, streams, n)
	}
	if n := clock.PendingTimers(); n != 0 {
		t.Fatalf("%d gather timers pending, want 0", n)
	}
}
