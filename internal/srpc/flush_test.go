package srpc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
)

// The flush tests run the server on a fake clock that is never advanced
// unless a test says so: a gather timer, once armed, never fires on its
// own, so whatever reaches the client got there by an eager kick.

// countingListener wraps accepted connections so a test can count the
// server's socket writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// newHeldServer serves "subscribe.hold" — a stream the test itself
// produces on, through the returned feed — and "ping", on a fake clock,
// and counts the server's conn.Write calls.
func newHeldServer(t *testing.T) (s *Server, feed *tickFeed, clock *clockwork.Fake, writes *atomic.Int64) {
	t.Helper()
	s = NewServer()
	clock = clockwork.NewFake(time.Unix(1700000000, 0))
	s.SetClock(clock)
	feed = &tickFeed{}
	HandleStreamFunc(s, "subscribe.hold", func(_ struct{}, st *ServerStream) error {
		feed.add(st)
		return nil
	})
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes = new(atomic.Int64)
	// What Listen does, with the listener wrapped.
	cl := countingListener{Listener: ln, writes: writes}
	s.mu.Lock()
	s.listener = cl
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(cl)
	t.Cleanup(s.Close)
	return s, feed, clock, writes
}

// openHeld opens n held streams on c and returns both halves, index-
// aligned (stream IDs are assigned in open order on both sides).
func openHeld(t *testing.T, c *Client, feed *tickFeed, n int) ([]*ClientStream, []*ServerStream) {
	t.Helper()
	clients := make([]*ClientStream, n)
	for i := range clients {
		st, err := c.OpenStream("subscribe.hold", struct{}{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = st
	}
	waitCond(t, func() bool {
		feed.mu.Lock()
		defer feed.mu.Unlock()
		return len(feed.streams) == n
	})
	servers := make([]*ServerStream, n)
	feed.mu.Lock()
	for _, st := range feed.streams {
		servers[st.id-1] = st
	}
	feed.mu.Unlock()
	return clients, servers
}

// recvTick expects tick n on st within the (real-time) timeout.
func recvTick(t *testing.T, st *ClientStream, n int) {
	t.Helper()
	var tk tick
	if err := st.Recv(&tk, 2*time.Second); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if tk.N != n {
		t.Fatalf("tick = %d, want %d", tk.N, n)
	}
}

// expectNothing asserts no frame reaches st for a little while. With the
// server's clock frozen a queued frame cannot leave by itself, so this
// can only fail when the frame really was flushed.
func expectNothing(t *testing.T, st *ClientStream) {
	t.Helper()
	var tk tick
	if err := st.Recv(&tk, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv before any flush = (%+v, %v), want a timeout", tk, err)
	}
}

// TestStreamFlushDeliversWithoutTimer: TrySend then Flush reaches the
// subscriber with the clock standing still.
func TestStreamFlushDeliversWithoutTimer(t *testing.T) {
	s, feed, _, _ := newHeldServer(t)
	c := dial(t, s)
	clients, servers := openHeld(t, c, feed, 1)
	for i := 0; i < 3; i++ {
		if err := servers[0].TrySend(tick{N: i}); err != nil {
			t.Fatal(err)
		}
		servers[0].Flush()
		recvTick(t, clients[0], i)
	}
}

// TestStreamTrySendAloneWaitsForGatherWindow: an unflushed data frame
// sits in the connection's write buffer until the gather window runs out
// or an eager frame on the same connection takes it along.
func TestStreamTrySendAloneWaitsForGatherWindow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(t *testing.T, c *Client, clock *clockwork.Fake)
	}{
		{"clock advances the window", func(_ *testing.T, _ *Client, clock *clockwork.Fake) {
			clock.Advance(streamGatherWindow)
		}},
		{"a response kicks", func(t *testing.T, c *Client, _ *clockwork.Fake) {
			var out string
			if err := c.Call("ping", struct{}{}, &out); err != nil || out != "pong" {
				t.Fatalf("ping = (%q, %v)", out, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, feed, clock, _ := newHeldServer(t)
			c := dial(t, s)
			clients, servers := openHeld(t, c, feed, 1)
			if err := servers[0].TrySend(tick{N: 7}); err != nil {
				t.Fatal(err)
			}
			// The flusher is lingering in the gather window.
			waitCond(t, func() bool { return clock.PendingTimers() == 1 })
			expectNothing(t, clients[0])
			tc.release(t, c, clock)
			recvTick(t, clients[0], 7)
		})
	}
}

// TestStreamBurstThenFlushIsOneWrite is the batching-by-construction
// claim: a burst across 128 streams of one connection, flushed once
// after the last TrySend, costs exactly one conn.Write.
func TestStreamBurstThenFlushIsOneWrite(t *testing.T) {
	const streams = 128
	s, feed, _, writes := newHeldServer(t)
	c := dial(t, s)
	clients, servers := openHeld(t, c, feed, streams)
	// A round trip proves the server's earlier writes (the magic) are
	// behind us; its response is the last write before the burst.
	var out string
	if err := c.Call("ping", struct{}{}, &out); err != nil {
		t.Fatal(err)
	}
	before := writes.Load()
	for i, st := range servers {
		if err := st.TrySend(tick{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	servers[streams-1].Flush()
	for i, st := range clients {
		recvTick(t, st, i)
	}
	if got := writes.Load() - before; got != 1 {
		t.Fatalf("128 TrySends + 1 Flush cost %d conn.Write calls, want 1", got)
	}
}
