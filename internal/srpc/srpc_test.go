package srpc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type addParams struct {
	A float64 `json:"a"`
	B float64 `json:"b"`
}

func newServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	HandleFunc(s, "add", func(p addParams) (any, error) {
		return p.A + p.B, nil
	})
	HandleFunc(s, "fail", func(struct{}) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	HandleFunc(s, "slow", func(struct{}) (any, error) {
		time.Sleep(50 * time.Millisecond)
		return "done", nil
	})
	HandleFunc(s, "echo", func(p map[string]any) (any, error) { return p, nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCallRoundTrip(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	var out float64
	if err := c.Call("add", addParams{A: 3, B: 4}, &out); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("out = %v", out)
	}
}

func TestCallNilParamsAndResult(t *testing.T) {
	s := newServer(t)
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	c := dial(t, s)
	if err := c.Call("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteError(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	err := c.Call("fail", struct{}{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	err := c.Call("nope", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out float64
			if err := c.Call("add", addParams{A: float64(i), B: 1}, &out); err != nil {
				errs <- err
				return
			}
			if out != float64(i+1) {
				errs <- fmt.Errorf("call %d: out = %v", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSlowHandlerDoesNotBlockOthers(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	slowDone := make(chan struct{})
	go func() {
		var out string
		c.Call("slow", struct{}{}, &out)
		close(slowDone)
	}()
	// The fast call must complete while the slow one is in flight.
	start := time.Now()
	var out float64
	if err := c.Call("add", addParams{A: 1, B: 1}, &out); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("fast call took %v behind slow call", elapsed)
	}
	<-slowDone

	// Two requests in one TCP write: the second sits in the read buffer
	// behind the first, whose handler blocks until the second's reply is
	// on the wire. The reader must have moved on to serve it.
	_, release := addBlocker(t, s)
	raw, rd := rawDial(t, s)
	batch := append(requestFrame(t, 1, "block", struct{}{}), requestFrame(t, 2, "add", addParams{A: 2, B: 3})...)
	if _, err := raw.Write(append(magic[:], batch...)); err != nil {
		t.Fatal(err)
	}
	if id := readResponseID(t, raw, rd); id != 2 {
		t.Fatalf("first reply is for request %d, want 2", id)
	}
	release()
	if id := readResponseID(t, raw, rd); id != 1 {
		t.Fatalf("second reply is for request %d, want 1", id)
	}
}

// addBlocker registers "block", whose handler signals entered and parks
// until release is called (at the latest when the test ends, so Close
// cannot hang on it).
func addBlocker(t *testing.T, s *Server) (entered <-chan struct{}, release func()) {
	in := make(chan struct{}, 1)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	HandleFunc(s, "block", func(struct{}) (any, error) {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
		return "released", nil
	})
	return in, release
}

// rawDial opens a bare TCP connection to s and consumes its magic; the
// test writes frames itself.
func rawDial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	rd := bufio.NewReader(raw)
	if err := readMagic(rd); err != nil {
		t.Fatal(err)
	}
	return raw, rd
}

// requestFrame encodes one complete request frame.
func requestFrame(t *testing.T, id uint64, method string, params any) []byte {
	t.Helper()
	b, err := appendRequest(beginFrame(nil), id, method, "", params)
	if err != nil {
		t.Fatal(err)
	}
	return finishFrame(b, frameRequest)
}

// readResponseID reads the next frame off a raw connection, which must
// be a response, and returns its request id.
func readResponseID(t *testing.T, raw net.Conn, rd *bufio.Reader) uint64 {
	t.Helper()
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	tag, buf, err := readFrame(rd)
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	defer putBuf(buf)
	resp, ok := decodeResponse(*buf)
	if tag != frameResponse || !ok {
		t.Fatalf("frame tag %#x is not a response", tag)
	}
	return resp.id
}

// TestServerCloseWaitsForHandlerOnFormerReader: a handler runs on the
// goroutine that read its request; Close still waits for it.
func TestServerCloseWaitsForHandlerOnFormerReader(t *testing.T) {
	s := newServer(t)
	started := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	var finished atomic.Bool
	HandleFunc(s, "park", func(struct{}) (any, error) {
		close(started)
		<-gate
		finished.Store(true)
		return nil, nil
	})
	c := dial(t, s)
	go c.Call("park", struct{}{}, nil)
	<-started
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	<-closed
	if !finished.Load() {
		t.Fatal("Close returned before the handler finished")
	}
}

// TestReadFailureDuringHandOverTearsDownOnce: the peer's last request is
// followed by EOF, so the read side fails on the goroutine it was just
// handed to while the handler still runs on the old one. The stream table
// is torn down (by the reader, once) and the late reply is dropped.
func TestReadFailureDuringHandOverTearsDownOnce(t *testing.T) {
	s, feed := newStreamServer(t)
	started, release := addBlocker(t, s)
	raw, rd := rawDial(t, s)
	open, err := appendStreamOpen(beginFrame(nil), 1, "subscribe.ticks", "", 4, ticksParams{Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := append(magic[:], finishFrame(open, frameStreamOpen)...)
	batch = append(batch, requestFrame(t, 1, "block", struct{}{})...)
	if _, err := raw.Write(batch); err != nil {
		t.Fatal(err)
	}
	<-started
	waitCond(t, func() bool {
		feed.mu.Lock()
		defer feed.mu.Unlock()
		return len(feed.streams) == 1
	})
	raw.(*net.TCPConn).CloseWrite()
	select {
	case <-feed.streams[0].Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stream not torn down after the read side failed")
	}
	waitCond(t, func() bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return len(s.conns) == 0
	})
	release()
	// The reply is dropped: the server closes the connection instead.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if tag, _, err := readFrame(rd); err == nil {
		t.Fatalf("read a frame (tag %#x) after teardown, want EOF", tag)
	}
	s.Close()
}

func TestCallTimeout(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "hang", func(struct{}) (any, error) {
		time.Sleep(time.Second)
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("hang", nil, nil); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	done := make(chan error, 1)
	go func() {
		done <- c.Call("slow", struct{}{}, nil)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			// The reply may have raced the close; both outcomes are
			// acceptable, but no hang.
			return
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
}

func TestClientClosedRejectsCalls(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	c.Close()
	c.Close() // idempotent
	err := c.Call("add", addParams{}, nil)
	if !errors.Is(err, ErrClientClosed) && !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadParamsRejectedByTypedHandler(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	// "add" expects an object; send an array.
	err := c.Call("add", []int{1, 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "bad params") {
		t.Fatalf("err = %v", err)
	}
}

func TestEchoComplexValue(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	in := map[string]any{"name": "Neem-Sensor", "value": 21.5, "tags": []any{"a", "b"}}
	var out map[string]any
	if err := c.Call("echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if out["name"] != "Neem-Sensor" || out["value"] != 21.5 {
		t.Fatalf("echo = %v", out)
	}
}

func TestGarbageFrameIgnored(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	// The garbage goes through a separate connection to the same server
	// (which drops that connection) to prove the server survives it.
	raw, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.conn.Write([]byte("this is not json\n"))
	var out float64
	if err := c.Call("add", addParams{A: 2, B: 2}, &out); err != nil || out != 4 {
		t.Fatalf("server wedged by garbage: %v %v", out, err)
	}
}

func TestListenAfterClose(t *testing.T) {
	s := NewServer()
	s.Close()
	if err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close accepted")
	}
}

func TestAddrBeforeListen(t *testing.T) {
	if NewServer().Addr() != "" {
		t.Fatal("Addr before Listen should be empty")
	}
}

func TestHandlerRawJSON(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "raw", func(params json.RawMessage) (any, error) {
		return len(params), nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, _ := Dial(s.Addr(), time.Second)
	defer c.Close()
	var n int
	if err := c.Call("raw", map[string]int{"x": 1}, &n); err != nil || n == 0 {
		t.Fatalf("raw handler: %v %v", n, err)
	}
}

func TestAuthTokenRequired(t *testing.T) {
	s := NewServer()
	s.SetToken("farm-secret")
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Unauthenticated: rejected before dispatch.
	c, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ping", nil, nil); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("err = %v", err)
	}
	// Wrong token.
	c.SetToken("wrong")
	if err := c.Call("ping", nil, nil); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("err = %v", err)
	}
	// Right token.
	c.SetToken("farm-secret")
	var out string
	if err := c.Call("ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("authenticated call = %q, %v", out, err)
	}
}

func TestCallWithTokenAuthenticatesPerCall(t *testing.T) {
	s := NewServer()
	s.SetToken("farm-secret")
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Callers with different secrets share the connection: each call is
	// judged on the token it carries.
	var out string
	if err := c.CallWithToken("ping", nil, &out, 0, "farm-secret"); err != nil || out != "pong" {
		t.Fatalf("call with the secret = %q, %v", out, err)
	}
	if err := c.CallWithToken("ping", nil, nil, 0, "wrong"); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("call with a wrong secret = %v", err)
	}
	// An empty per-call token falls back to the connection's.
	if err := c.CallWithToken("ping", nil, nil, 0, ""); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("tokenless call = %v", err)
	}
	c.SetToken("farm-secret")
	if err := c.CallWithToken("ping", nil, nil, 0, ""); err != nil {
		t.Fatalf("call on the connection's token = %v", err)
	}
	if err := c.CallWithToken("ping", nil, nil, 0, "wrong"); err == nil {
		t.Fatal("a per-call token did not override the connection's")
	}
}

func TestNoTokenMeansOpen(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	c.SetToken("irrelevant") // servers without a token ignore auth fields
	var out float64
	if err := c.Call("add", addParams{A: 1, B: 1}, &out); err != nil || out != 2 {
		t.Fatalf("open server rejected: %v", err)
	}
}

func TestConnClosedMidCallFailsFastWithErrConnClosed(t *testing.T) {
	release := make(chan struct{})
	s := NewServer()
	HandleFunc(s, "hang", func(struct{}) (any, error) {
		<-release
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(release)
	// Long call timeout: a prompt failure proves the pending call was
	// failed by the connection loss, not by the deadline.
	c, err := Dial(s.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call("hang", nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let the request reach the server
	start := time.Now()
	// Close in the background: Server.Close waits for the stuck handler,
	// but the connections are torn down immediately, which is what the
	// pending call must react to.
	go s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("err = %v, want ErrConnClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("pending call took %v to fail after close", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending call hung after server closed the connection")
	}
	// Calls after the loss also report the lost connection, not a
	// client-side close the caller never requested.
	if err := c.Call("hang", nil, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-loss call err = %v, want ErrConnClosed", err)
	}
	if !c.Lost() {
		t.Fatal("Lost() = false after the peer closed the connection")
	}
}

func TestExplicitCloseStillReportsClientClosed(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	if c.Lost() {
		t.Fatal("Lost() = true on a live connection")
	}
	c.Close()
	if c.Lost() {
		t.Fatal("Lost() = true after the owner's Close")
	}
	if err := c.Call("add", addParams{}, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestCallWithTimeoutOverridesDefault(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "hang", func(struct{}) (any, error) {
		time.Sleep(time.Second)
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.CallWithTimeout("hang", nil, nil, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("override deadline not honored: %v", elapsed)
	}
}
