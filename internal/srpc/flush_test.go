package srpc

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
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

// openHeld opens n held streams with the given credit window on c and
// returns both halves, index-aligned (stream IDs are assigned in open
// order on both sides).
func openHeld(t *testing.T, c *Client, feed *tickFeed, n int, window uint64) ([]*ClientStream, []*ServerStream) {
	t.Helper()
	clients := make([]*ClientStream, n)
	for i := range clients {
		st, err := c.OpenStream("subscribe.hold", struct{}{}, window)
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
	clients, servers := openHeld(t, c, feed, 1, 4)
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
			clients, servers := openHeld(t, c, feed, 1, 4)
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
	clients, servers := openHeld(t, c, feed, streams, 4)
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

// TestStreamLazyDataThenEagerCloseInOrder: data frames queued lazily and
// then the stream's close frame, written eagerly from another goroutine,
// reach the client in that order. The close must queue behind the data
// (nothing kicks the flusher's frozen gather timer but the close).
func TestStreamLazyDataThenEagerCloseInOrder(t *testing.T) {
	s, feed, clock, _ := newHeldServer(t)
	c := dial(t, s)
	clients, servers := openHeld(t, c, feed, 1, 4)
	for i := 0; i < 3; i++ {
		if err := servers[0].TrySend(tick{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return clock.PendingTimers() == 1 })
	closed := make(chan struct{})
	go func() {
		servers[0].Close(nil)
		close(closed)
	}()
	<-closed
	for i := 0; i < 3; i++ {
		recvTick(t, clients[0], i)
	}
	if err := clients[0].Recv(nil, 2*time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after the data = %v, want io.EOF", err)
	}
}

// TestIdleReplyIsOneWrite: on an idle connection each reply is exactly
// one conn.Write.
func TestIdleReplyIsOneWrite(t *testing.T) {
	s, _, _, writes := newHeldServer(t)
	c := dial(t, s)
	var out string
	if err := c.Call("ping", struct{}{}, &out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		before := writes.Load()
		if err := c.Call("ping", struct{}{}, &out); err != nil || out != "pong" {
			t.Fatalf("ping = (%q, %v)", out, err)
		}
		if got := writes.Load() - before; got != 1 {
			t.Fatalf("reply %d cost %d conn.Write calls, want 1", i, got)
		}
	}
}

// sinkConn records what is written to it. With gate set, the first
// Write blocks until gate closes; later ones go straight through. Nothing
// else of net.Conn is used.
type sinkConn struct {
	net.Conn
	mu   sync.Mutex
	gate chan struct{}
	got  []byte
}

func (c *sinkConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.gate = nil
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	c.mu.Lock()
	c.got = append(c.got, b...)
	c.mu.Unlock()
	return len(b), nil
}

func (c *sinkConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.got...)
}

// TestWriteFrameIdleWritesInline: an idle writer's writeFrame has made
// its one conn.Write by the time it returns — no flusher runs here.
func TestWriteFrameIdleWritesInline(t *testing.T) {
	writes := new(atomic.Int64)
	sink := &sinkConn{}
	cw := &connWriter{
		conn: countingConn{Conn: sink, writes: writes},
		kick: make(chan struct{}, 1),
		lazy: make(chan struct{}, 1),
	}
	cw.writeFrame([]byte("reply"))
	if got := writes.Load(); got != 1 {
		t.Fatalf("writeFrame on an idle writer made %d conn.Write calls, want 1", got)
	}
	if got := string(sink.bytes()); got != "reply" {
		t.Fatalf("wrote %q", got)
	}
}

// TestStopKeepsFramesQueuedBehindInlineWrite: a frame queued while an
// inline write is in flight still leaves, after it, when the connection
// stops before the write returns.
func TestStopKeepsFramesQueuedBehindInlineWrite(t *testing.T) {
	gate := make(chan struct{})
	sink := &sinkConn{gate: gate}
	cw := newConnWriter(sink, clockwork.Real())
	inline := make(chan struct{})
	go func() {
		cw.writeFrame([]byte("first;"))
		close(inline)
	}()
	waitCond(t, func() bool {
		cw.mu.Lock()
		defer cw.mu.Unlock()
		return cw.writing
	})
	cw.writeFrame([]byte("second;")) // queued behind the blocked write
	stopped := make(chan struct{})
	go func() {
		cw.stop()
		close(stopped)
	}()
	select {
	case <-cw.exited:
		t.Fatal("the flusher exited with a write in flight and a frame queued behind it")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-inline
	<-stopped
	if got := string(sink.bytes()); got != "first;second;" {
		t.Fatalf("wire = %q, want %q", got, "first;second;")
	}
}

// holdConn parks every Write while held, until release: frames produced
// meanwhile can only queue behind the parked write, however fast or slow
// the machine runs the code that produces them.
type holdConn struct {
	net.Conn
	mu     sync.Mutex
	gate   chan struct{} // non-nil while held
	parked atomic.Int32
}

func (c *holdConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		c.parked.Add(1)
		<-gate
		c.parked.Add(-1)
	}
	return c.Conn.Write(b)
}

func (c *holdConn) hold() {
	c.mu.Lock()
	c.gate = make(chan struct{})
	c.mu.Unlock()
}

// release lets parked and later writes through; it may be called more
// than once.
func (c *holdConn) release() {
	c.mu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.mu.Unlock()
}

// dialHeld connects a client to addr over a holdConn, counting the
// client's conn.Write calls.
func dialHeld(t *testing.T, addr string) (*Client, *holdConn, *atomic.Int64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hc := &holdConn{Conn: conn}
	writes := new(atomic.Int64)
	c, err := newClient(countingConn{Conn: hc, writes: writes}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(hc.release)
	return c, hc, writes
}

// TestCreditGrantsShareOneWrite: 64 streams on one client each consume
// half their window in one burst, so each owes the server a grant at
// once. The grants are lazy frames on the client's writer: at most two
// conn.Write calls carry all 64 — one the flusher may have started
// before the last grant was made, one for the rest — and every server
// window refills. Writes are held while the grants are made, so the
// count does not depend on how the Recvs race the gather window; a
// client that wrote each grant itself would block in the first Recv
// until the safety release and then pay 64 writes.
func TestCreditGrantsShareOneWrite(t *testing.T) {
	const streams = 64
	const half = DefaultStreamWindow / 2
	s, feed, _, _ := newHeldServer(t)
	c, hc, writes := dialHeld(t, s.Addr())
	clients, servers := openHeld(t, c, feed, streams, DefaultStreamWindow)
	for _, st := range servers {
		for i := 0; i < half; i++ {
			if err := st.TrySend(tick{N: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	servers[streams-1].Flush()
	for _, st := range clients {
		for i := 0; i < half-1; i++ {
			recvTick(t, st, i)
		}
	}
	before := writes.Load()
	hc.hold()
	safety := time.AfterFunc(2*time.Second, hc.release)
	defer safety.Stop()
	for _, st := range clients {
		recvTick(t, st, half-1) // each of these owes a grant
	}
	hc.release()
	waitCond(t, func() bool {
		for _, st := range servers {
			if st.Credit() != DefaultStreamWindow {
				return false
			}
		}
		return true
	})
	if got := writes.Load() - before; got > 2 {
		t.Fatalf("%d grants cost %d client conn.Write calls, want at most 2", streams, got)
	}
}

// TestSmallWindowStreamDoesNotStall: with a window of 2 a grant is due
// after every frame and only one credit is left when it is made, so the
// stream moves one gather window at a time — but it moves: 1000 frames
// arrive in order.
func TestSmallWindowStreamDoesNotStall(t *testing.T) {
	const frames = 1000
	s, _ := newStreamServer(t)
	c := dial(t, s)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: frames}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		recvTick(t, st, i)
	}
	if err := st.Recv(nil, 2*time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after %d frames = %v, want io.EOF", frames, err)
	}
}

// TestStreamCloseThenClientCloseReachesPeer: a ClientStream.Close
// followed at once by Client.Close still puts the stream's close frame
// on the wire before the socket closes. The close frame is made to
// queue behind a parked request write, so it can only leave through
// the writer's drain. A real server would see Done either way, from
// the connection drop; the peer here reads the bytes instead.
func TestStreamCloseThenClientCloseReachesPeer(t *testing.T) {
	addr, conns := silentListener(t)
	c, hc, _ := dialHeld(t, addr)
	st, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-conns
	defer peer.Close()
	hc.hold()
	// A client whose stream close wrote to the socket itself would park
	// in st.Close until this fires.
	safety := time.AfterFunc(2*time.Second, hc.release)
	defer safety.Stop()
	called := make(chan error, 1)
	go func() { called <- c.Call("ping", struct{}{}, nil) }()
	waitCond(t, func() bool { return hc.parked.Load() == 1 })
	st.Close() // queued behind the parked request
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Client.Close returned with a write parked and a close frame queued")
	case <-time.After(20 * time.Millisecond):
	}
	hc.release()
	<-closed
	if err := <-called; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("call cut off by Close = %v, want ErrConnClosed", err)
	}
	r := bufio.NewReader(bytes.NewReader(readUntilClosed(t, peer)))
	if err := readMagic(r); err != nil {
		t.Fatal(err)
	}
	var tags []byte
	for {
		tag, buf, err := readFrame(r)
		if err != nil {
			break
		}
		tags = append(tags, tag)
		if tag == frameStreamClose {
			if cl, ok := decodeStreamClose(*buf); !ok || cl.id != 1 || cl.isErr {
				t.Fatalf("close frame = %+v, %v; want an orderly close of stream 1", cl, ok)
			}
		}
	}
	if want := []byte{frameStreamOpen, frameRequest, frameStreamClose}; !bytes.Equal(tags, want) {
		t.Fatalf("frames on the wire = %#x, want %#x", tags, want)
	}
}

// TestCallOnPeerClosedConnFailsPromptly: once the peer has closed the
// connection, a call fails with ErrConnClosed at once — whether the read
// side saw the close before the call or only after the call's request
// went out — and not at its 30 s deadline.
func TestCallOnPeerClosedConnFailsPromptly(t *testing.T) {
	addr, conns := silentListener(t)
	c, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := <-conns
	// Read the client's magic first, so the close is an orderly FIN
	// rather than a reset over unread bytes.
	if err := readMagic(bufio.NewReader(peer)); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write(magic[:]); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	for i := 0; i < 2; i++ {
		start := time.Now()
		err := c.Call("ping", struct{}{}, nil)
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("call %d on a closed connection = %v, want ErrConnClosed", i, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("call %d took %v to fail", i, elapsed)
		}
	}
	if !c.Lost() {
		t.Fatal("Lost() = false after the peer closed the connection")
	}
}

// blob is a payload that encodes by one copy, under a test-only tag
// like shapePoint's.
type blob []byte

func (b blob) SrpcShape() byte                       { return shapePoint + 1 }
func (b blob) AppendSrpc(buf []byte) ([]byte, error) { return append(buf, b...), nil }

// TestCloseReturnsWhilePeerStopsReading: a peer that stops reading
// stalls an inline request write, and a second request queues behind
// it. Close drains the writer before the socket closes, and the drain
// would wait on the stalled write for good; the call timeout bounds it.
func TestCloseReturnsWhilePeerStopsReading(t *testing.T) {
	addr, conns := silentListener(t)
	c, err := Dial(addr, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-conns // never read
	defer peer.Close()
	// Larger than loopback's socket buffers, so the write stalls.
	big := blob(make([]byte, 32<<20))
	calls := make(chan error, 2)
	go func() { calls <- c.Call("sink", big, nil) }()
	waitCond(t, func() bool {
		c.cw.mu.Lock()
		defer c.cw.mu.Unlock()
		return c.cw.writing
	})
	go func() { calls <- c.Call("sink", "small", nil) }()
	waitCond(t, func() bool {
		c.cw.mu.Lock()
		defer c.cw.mu.Unlock()
		return len(c.cw.pending) > 0
	})
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a peer that stopped reading")
	}
	for i := 0; i < 2; i++ {
		if err := <-calls; err == nil {
			t.Fatal("a call to a peer that never read succeeded")
		}
	}
}
