package srpc

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tick is one stream payload for the tests.
type tick struct {
	N int `json:"n"`
}

// streamServer serves "subscribe.ticks": it pushes params.Count ticks as
// fast as credit allows, conflating nothing (the subscription plane owns
// conflation; srpc only owns the window), then closes the stream.
type tickFeed struct {
	mu      sync.Mutex
	streams []*ServerStream
}

func (tf *tickFeed) add(st *ServerStream) {
	tf.mu.Lock()
	tf.streams = append(tf.streams, st)
	tf.mu.Unlock()
}

type ticksParams struct {
	Count int `json:"count"`
	// Hold keeps the stream open after Count ticks (push-on-demand tests).
	Hold bool `json:"hold,omitempty"`
}

func newStreamServer(t *testing.T) (*Server, *tickFeed) {
	t.Helper()
	s := NewServer()
	feed := &tickFeed{}
	HandleStreamFunc(s, "subscribe.ticks", func(p ticksParams, st *ServerStream) error {
		feed.add(st)
		go func() {
			sent := 0
			for sent < p.Count {
				err := st.TrySend(tick{N: sent})
				if err == nil {
					sent++
					continue
				}
				if errors.Is(err, ErrStreamClosed) {
					return
				}
				// Out of credit: park until the subscriber replenishes.
				select {
				case <-st.Ready():
				case <-st.Done():
					return
				}
			}
			if !p.Hold {
				st.Close(nil)
			} else {
				<-st.Done()
			}
		}()
		return nil
	})
	HandleStreamFunc(s, "subscribe.reject", func(struct{}, *ServerStream) error {
		return errors.New("subscription refused")
	})
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, feed
}

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	s, _ := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		var tk tick
		if err := st.Recv(&tk, 2*time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if tk.N != i {
			t.Fatalf("tick %d = %d (out of order)", i, tk.N)
		}
	}
	var tk tick
	if err := st.Recv(&tk, 2*time.Second); err != io.EOF {
		t.Fatalf("after close: err = %v, want io.EOF", err)
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	s, _ := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.nope", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if err := st.Recv(nil, 2*time.Second); !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestStreamHandlerReject(t *testing.T) {
	s, _ := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.reject", struct{}{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Recv(nil, 2*time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != "subscription refused" {
		t.Fatalf("err = %v, want remote 'subscription refused'", err)
	}
}

func TestStreamAuth(t *testing.T) {
	s, _ := newStreamServer(t)
	s.SetToken("sesame")
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if err := st.Recv(nil, 2*time.Second); !errors.As(err, &re) {
		t.Fatalf("unauthenticated open: err = %v, want RemoteError", err)
	}

	c2 := dial(t, s)
	c2.SetToken("sesame")
	st2, err := c2.OpenStream("subscribe.ticks", ticksParams{Count: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tk tick
	if err := st2.Recv(&tk, 2*time.Second); err != nil {
		t.Fatalf("authenticated open: %v", err)
	}
}

// TestStreamOpenRightAfterDial: OpenStream is the first thing a fresh
// connection sends — no call before it, no wait for the server's magic —
// and data flows. Many fresh connections, so the open regularly reaches
// the wire before the server's magic has arrived.
func TestStreamOpenRightAfterDial(t *testing.T) {
	s, _ := newStreamServer(t)
	for i := 0; i < 50; i++ {
		c, err := Dial(s.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 3}, 4)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		for want := 0; want < 3; want++ {
			var tk tick
			if err := st.Recv(&tk, 2*time.Second); err != nil || tk.N != want {
				t.Fatalf("conn %d recv %d: %+v, %v", i, want, tk, err)
			}
		}
		c.Close()
	}
}

// TestStreamCreditNeverBlocksSiblings is the backpressure contract: one
// subscriber that stops consuming exhausts its own window while a
// sibling stream on the same connection keeps flowing and plain calls
// still answer.
func TestStreamCreditNeverBlocksSiblings(t *testing.T) {
	s, feed := newStreamServer(t)
	c := dial(t, s)

	stalled, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = stalled // never Recv: its window fills after 4 frames
	live, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 500}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		var tk tick
		if err := live.Recv(&tk, 2*time.Second); err != nil {
			t.Fatalf("sibling recv %d stalled: %v", i, err)
		}
	}
	// Plain request/response on the same connection still flows.
	var pong string
	if err := c.Call("ping", nil, &pong); err != nil || pong != "pong" {
		t.Fatalf("call alongside stalled stream: %v %q", err, pong)
	}
	// The stalled producer is parked on Ready, not wedged: the server
	// stream ends up with zero credit. Handler goroutines register with
	// the feed in racy order, so find the stalled stream by its ID, and
	// poll — the producer may still be burning its window down.
	var st0 *ServerStream
	waitCond(t, func() bool {
		feed.mu.Lock()
		defer feed.mu.Unlock()
		for _, fs := range feed.streams {
			if fs.id == stalled.id {
				st0 = fs
				return true
			}
		}
		return false
	})
	deadline := time.Now().Add(2 * time.Second)
	for st0.Credit() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled stream credit = %d, want 0", st0.Credit())
		}
		time.Sleep(time.Millisecond)
	}
	if err := st0.TrySend(tick{}); !errors.Is(err, ErrNoCredit) {
		t.Fatalf("TrySend on exhausted window = %v, want ErrNoCredit", err)
	}
}

// TestStreamClientCloseReleasesServer proves a subscriber disconnect
// mid-burst reaches the producer promptly via Done.
func TestStreamClientCloseReleasesServer(t *testing.T) {
	s, feed := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 10, Hold: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tk tick
	if err := st.Recv(&tk, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	st.Close()
	feed.mu.Lock()
	srv := feed.streams[0]
	feed.mu.Unlock()
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("server stream never observed the client close")
	}
	if err := srv.TrySend(tick{}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("TrySend after close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamConnDropReleasesServer: killing the whole client connection
// mid-stream tears every server stream down.
func TestStreamConnDropReleasesServer(t *testing.T) {
	s, feed := newStreamServer(t)
	c := dial(t, s)
	if _, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 5, Hold: true}, 4); err != nil {
		t.Fatal(err)
	}
	// Wait for the stream to register server-side.
	deadline := time.Now().Add(2 * time.Second)
	for {
		feed.mu.Lock()
		n := len(feed.streams)
		feed.mu.Unlock()
		if n == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	feed.mu.Lock()
	srv := feed.streams[0]
	feed.mu.Unlock()
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("server stream never observed the connection drop")
	}
}

// TestStreamConnDropFailsClient: the server going away fails pending
// Recvs with ErrConnClosed instead of hanging.
func TestStreamConnDropFailsClient(t *testing.T) {
	s, _ := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1, Hold: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tk tick
	if err := st.Recv(&tk, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Recv(&tk, 2*time.Second); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("recv after server close = %v, want ErrConnClosed", err)
	}
}

// TestStreamManyOverOneConn multiplexes many concurrent streams over a
// single connection — the fan-in shape the subscription plane
// relies on.
func TestStreamManyOverOneConn(t *testing.T) {
	s, _ := newStreamServer(t)
	c := dial(t, s)
	const streams, ticks = 50, 40
	var wg sync.WaitGroup
	var failed atomic.Int32
	for i := 0; i < streams; i++ {
		st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: ticks}, 8)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *ClientStream) {
			defer wg.Done()
			for j := 0; j < ticks; j++ {
				var tk tick
				if err := st.Recv(&tk, 5*time.Second); err != nil || tk.N != j {
					failed.Add(1)
					return
				}
			}
		}(st)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d streams failed", n, streams)
	}
}

// TestStreamNoGoroutineLeak churns subscribe/burst/disconnect cycles and
// checks the goroutine count settles back — pumps and handlers must not
// accumulate.
func TestStreamNoGoroutineLeak(t *testing.T) {
	s, _ := newStreamServer(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c := dial(t, s)
		st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1000, Hold: true}, 4)
		if err != nil {
			t.Fatal(err)
		}
		var tk tick
		_ = st.Recv(&tk, 2*time.Second)
		c.Close() // disconnect mid-burst
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before %d, after churn %d", before, runtime.NumGoroutine())
}
