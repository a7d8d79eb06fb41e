// Package srpc is the small RPC transport sensorcer uses for
// cross-process deployments (cmd/sensorcerd): one wire protocol of
// length-prefixed frames (codec.go) carrying integer-correlated calls
// and credit-controlled server-push streams (stream.go), all
// multiplexed over one connection. Each end opens with a fixed 5-byte
// magic and drops a peer that opens with anything else. In-process
// federations never touch this package — proxies registered in the
// lookup service are the provider objects themselves — but the remote
// sensor browser and remote registrars are srpc clients. Java dynamic
// proxies have no Go equivalent, so remote interfaces get small
// hand-written stubs on top of Client.Call.
package srpc

import (
	"bufio"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/faults"
)

// FaultSiteSend is the injection-site suffix consulted before each client
// request: errors fail the call, drops lose it in flight (the call then
// waits out its deadline exactly like real message loss).
const FaultSiteSend = "/send"

// handlerFunc is the internal handler shape: the payload carries its
// shape tag, and its data alias the connection's frame buffer for the
// duration of the call.
type handlerFunc func(p binPayload) (any, error)

// Server dispatches srpc requests to registered handlers.
type Server struct {
	mu             sync.RWMutex
	handlers       map[string]handlerFunc
	streamHandlers map[string]streamHandlerFunc
	listener       net.Listener
	conns          map[net.Conn]bool
	token          string
	clock          clockwork.Clock
	closed         bool
	wg             sync.WaitGroup
	// readersStarted counts the goroutines started to take over a read
	// side (tests).
	readersStarted atomic.Int64
}

// SetClock injects a clock (tests); the default is the real one. Set
// before Listen.
func (s *Server) SetClock(c clockwork.Clock) {
	s.mu.Lock()
	s.clock = c
	s.mu.Unlock()
}

// SetToken requires every request to carry the shared secret — the
// (deliberately simple) stand-in for the Jini security services the
// paper inherits (§VIII), compared in constant time. Set before Listen.
// An empty token disables authentication (the default).
func (s *Server) SetToken(token string) {
	s.mu.Lock()
	s.token = token
	s.mu.Unlock()
}

// NewServer creates a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handlerFunc),
		conns:    make(map[net.Conn]bool),
		clock:    clockwork.Real(),
	}
}

// HandleFunc registers a typed handler: shape-0 (JSON) params unmarshal
// into P, and fast-path payloads decode through P's BinaryUnmarshaler (a
// shape-tagged payload for a P without one is an error back to the
// caller). Decoded params own their memory — P may be retained freely.
func HandleFunc[P any](s *Server, method string, fn func(P) (any, error)) {
	h := func(p binPayload) (any, error) {
		var v P
		if err := decodePayload(p, &v); err != nil {
			return nil, fmt.Errorf("srpc: bad params for %s: %w", method, err)
		}
		return fn(v)
	}
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral port) and serves until
// Close.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("srpc: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address (empty before Listen).
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connWriter serializes every outgoing frame onto one connection. A
// reply leaves from the goroutine that produced it: writeFrame writes
// inline when nothing is pending and no write is in flight, so a request
// on an idle connection costs one conn.Write and no goroutine wake-up.
// Otherwise the frame is appended to a pending buffer under a short lock
// and the flusher goroutine is nudged; it swaps the buffer out and writes
// it with a single syscall. Frames that accumulate while one write is in
// flight — inline or the flusher's — all leave in the next one, in the
// order they were queued.
//
// There are two nudges. An eager kick (writeFrame behind a pending
// buffer, stream close frames, ServerStream.Flush) writes as soon as the
// flusher runs. A lazy kick (writeFrameLazy: a stream data frame nobody
// flushed) lets the flusher linger streamGatherWindow first, so frames
// from this connection's other streams can join the same write. A
// fan-out burst does not depend on that timer: the subscription hub
// appends every frame of one Publish and then calls Flush, so the burst
// leaves in one write per connection when the Publish ends. Only frames a
// subscription's pump sends on its own — paced or credit-recovery
// deliveries, already late by construction — wait out the window.
//
// Stream data never touches the socket from its producer, so a peer
// whose socket has stalled cannot block a publisher. An inline write
// blocks only the goroutine whose reply or stream close it is, and no
// caller holds a lock across one (deepblock flags any call into srpc
// under a mutex). The pending buffer stays bounded without any explicit
// cap: stream data frames are credit-gated by the peer's open windows
// and responses are matched to in-flight requests.
type connWriter struct {
	conn  net.Conn
	clock clockwork.Clock
	mu    sync.Mutex
	// pending holds complete frames not yet handed to the kernel.
	pending []byte
	// writing marks a conn.Write in flight (inline or the flusher's);
	// whoever finishes it hands what queued meanwhile to the flusher.
	writing bool
	// err is the first socket write error; once set, frames are dropped
	// (the read side tears the connection down independently).
	err    error
	kick   chan struct{} // cap 1: wakes the flusher now
	lazy   chan struct{} // cap 1: wakes it after a short gather window
	done   chan struct{} // closed by stop: flusher drains and exits
	exited chan struct{} // closed by the flusher on return
}

func newConnWriter(conn net.Conn, clock clockwork.Clock) *connWriter {
	cw := &connWriter{
		conn:   conn,
		clock:  clock,
		kick:   make(chan struct{}, 1),
		lazy:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go cw.flusher()
	return cw
}

// maxRetainedWriteBuf caps how much a connection's swap buffers keep
// after a burst; anything larger is released to the collector.
const maxRetainedWriteBuf = 1 << 20

// streamGatherWindow is how long the flusher lingers after a lazy kick
// before writing, so the frames other pumps queue on this connection
// meanwhile leave in the same syscall. It is a floor, not the observed
// wait: an otherwise idle Go runtime fires a 200µs timer after about a
// millisecond. An eager kick — a response queued behind it, or the Flush
// that ends a Publish — cuts the wait short, so only pump deliveries
// ever pay it.
const streamGatherWindow = 200 * time.Microsecond

func (cw *connWriter) flusher() {
	defer close(cw.exited)
	var spare []byte
	for {
		select {
		case <-cw.kick:
		case <-cw.lazy:
			t := cw.clock.NewTimer(streamGatherWindow)
			select {
			case <-cw.kick:
			case <-t.C():
			case <-cw.done:
			}
			t.Stop()
		case <-cw.done:
			cw.drain()
			return
		}
		// This flush takes every frame queued so far, lazy ones included
		// (a lazy token is sent after its frame is appended), so a token
		// still waiting would only start a gather timer for nothing.
		select {
		case <-cw.lazy:
		default:
		}
		cw.flushOnce(&spare)
	}
}

// flushOnce swaps the pending buffer against a flusher-owned spare and
// writes it outside the lock, so writers keep appending while the
// syscall is in flight. With another write in flight it does nothing:
// that writer kicks again when it finishes if frames queued behind it.
func (cw *connWriter) flushOnce(spare *[]byte) {
	cw.mu.Lock()
	if cw.writing || len(cw.pending) == 0 {
		cw.mu.Unlock()
		return
	}
	buf := cw.pending
	cw.pending = (*spare)[:0]
	cw.writing = true
	cw.mu.Unlock()
	cw.write(buf)
	if cap(buf) > maxRetainedWriteBuf {
		buf = nil
	}
	*spare = buf[:0]
}

// write hands b to the kernel for whoever set cw.writing, records the
// first error, and kicks the flusher when frames queued behind it.
func (cw *connWriter) write(b []byte) {
	_, err := cw.conn.Write(b)
	cw.mu.Lock()
	cw.writing = false
	if err != nil && cw.err == nil {
		cw.err = err
	}
	queued := len(cw.pending) > 0
	cw.mu.Unlock()
	if queued {
		cw.flush()
	}
}

// drain is the flusher's last act: it waits out a write in flight that
// has frames queued behind it (that writer's kick ends the wait), takes
// the pending buffer and closes the writer to later frames, then writes
// what it took.
func (cw *connWriter) drain() {
	cw.mu.Lock()
	for cw.writing && len(cw.pending) > 0 {
		cw.mu.Unlock()
		<-cw.kick
		cw.mu.Lock()
	}
	buf := cw.pending
	cw.pending = nil
	if cw.err == nil {
		cw.err = net.ErrClosed
	}
	cw.mu.Unlock()
	if len(buf) > 0 {
		_, _ = cw.conn.Write(buf)
	}
}

// stop drains whatever is pending and shuts the flusher down; the
// caller closes the conn only after stop returns. Late writers (handler
// goroutines finishing after the connection dropped) see the error and
// drop their frames.
func (cw *connWriter) stop() {
	close(cw.done)
	<-cw.exited
}

// writeFrame sends frame now: inline from the calling goroutine when the
// connection is idle, else queued behind what is pending with an eager
// kick. frame may be reused once it returns.
func (cw *connWriter) writeFrame(frame []byte) {
	cw.mu.Lock()
	if cw.err != nil {
		cw.mu.Unlock()
		return
	}
	if !cw.writing && len(cw.pending) == 0 {
		cw.writing = true
		cw.mu.Unlock()
		cw.write(frame)
		return
	}
	cw.pending = append(cw.pending, frame...)
	cw.mu.Unlock()
	cw.flush()
}

// flush wakes the flusher now (the eager kick), cutting short a gather
// window it may be lingering in.
func (cw *connWriter) flush() {
	select {
	case cw.kick <- struct{}{}:
	default:
	}
}

// writeFrameLazy queues a frame that leaves with the next eager kick or
// after the gather window, whichever comes first — stream data, whose
// sender either flushes at the end of its burst (ServerStream.Flush) or
// is a pump delivery that may wait for company.
func (cw *connWriter) writeFrameLazy(frame []byte) {
	cw.mu.Lock()
	if cw.err == nil {
		cw.pending = append(cw.pending, frame...)
	}
	cw.mu.Unlock()
	select {
	case cw.lazy <- struct{}{}:
	default:
	}
}

// maxSpares caps the goroutines a connection keeps parked between
// requests. One is too few: when requests overlap, as a composite's
// child reads do, goroutines whose stacks have grown would keep exiting
// and fresh ones would grow theirs again.
const maxSpares = 4

// connReader is a connection's read side: the buffered reader, the
// method scratch buffer and the stream table. Exactly one goroutine owns
// it at a time. The owner that decodes a request hands it to a spare —
// a goroutine parked after serving an earlier request — or to a fresh
// one when none is parked, and serves the request itself; the owner
// whose read fails tears the connection down. The channels and the idle
// count are shared by the connection's goroutines, owner or not.
type connReader struct {
	conn   net.Conn
	cw     *connWriter
	reader *bufio.Reader
	// scratch backs reassembled method names across requests; the map
	// lookup over it never allocates.
	scratch []byte
	// streams tracks this connection's open server streams; whatever is
	// still open when the connection drops is torn down so producers
	// observe Done and release their subscriptions.
	streams *connStreams
	// wake hands the read side to a parked spare; gone is closed by
	// teardown and ends every spare; idle counts the parked spares.
	wake chan struct{}
	gone chan struct{}
	idle atomic.Int32
}

// park waits as a spare after serving a request. It reports true once a
// reader handed the read side over, false when the connection is gone
// or maxSpares are parked already.
func (rd *connReader) park() bool {
	if rd.idle.Add(1) > maxSpares {
		rd.idle.Add(-1)
		return false
	}
	defer rd.idle.Add(-1)
	select {
	case <-rd.wake:
		return true
	case <-rd.gone:
		return false
	}
}

func (s *Server) serveConn(conn net.Conn) {
	s.mu.RLock()
	clock := s.clock
	s.mu.RUnlock()
	rd := &connReader{
		conn:    conn,
		cw:      newConnWriter(conn, clock),
		reader:  bufio.NewReader(conn),
		streams: &connStreams{},
		wake:    make(chan struct{}),
		gone:    make(chan struct{}),
	}
	// Nothing else is queued yet, so the magic is the first bytes on the
	// wire.
	rd.cw.writeFrame(magic[:])
	if err := readMagic(rd.reader); err != nil {
		// Not an srpc peer: a legacy JSON line, an HTTP probe, a wrong port.
		s.teardown(rd)
		s.wg.Done()
		return
	}
	s.readConn(rd)
}

// teardown ends a connection whose read side failed: open streams see
// Done, parked spares exit, pending frames drain, the socket closes.
// Handlers still running on former readers finish, drop their replies
// and exit instead of parking.
func (s *Server) teardown(rd *connReader) {
	close(rd.gone)
	rd.streams.closeAll()
	rd.cw.stop()
	rd.conn.Close()
	s.mu.Lock()
	delete(s.conns, rd.conn)
	s.mu.Unlock()
}

// readConn owns rd until it hands it over or the connection ends. A
// request is served on the goroutine that read it, after a spare or a
// fresh goroutine took over the read side, so a slow handler never
// head-of-line-blocks the connection and its reply leaves from here.
// The goroutine then parks as a spare and reads again once rd is handed
// back, so a connection in steady use starts no goroutines and its
// readers keep the stacks they grew.
func (s *Server) readConn(rd *connReader) {
	defer s.wg.Done()
	for {
		tag, buf, err := readFrame(rd.reader)
		if err != nil {
			s.teardown(rd) // framing is broken or the peer left
			return
		}
		switch tag {
		case frameRequest:
			req, sc, ok := decodeRequest(*buf, rd.scratch)
			rd.scratch = sc
			if !ok {
				putBuf(buf)
				continue // malformed body inside a well-formed frame; skip it
			}
			h, errMsg := s.lookupHandler(req.method, req.auth)
			select {
			case rd.wake <- struct{}{}: // a parked spare reads from here on
			default:
				s.wg.Add(1)
				s.readersStarted.Add(1)
				go s.readConn(rd)
			}
			// rd is the new reader's until it is handed back; rd.cw
			// stays shared. This goroutine owns the frame buffer
			// (req.payload aliases it) and returns it to the pool once
			// the reply is encoded.
			s.serveRequest(rd.cw, h, errMsg, req.id, req.payload, buf)
			if !rd.park() {
				return
			}
		case frameStreamOpen:
			op, sc, ok := decodeStreamOpen(*buf, rd.scratch)
			rd.scratch = sc
			if !ok {
				putBuf(buf)
				continue
			}
			// The handler goroutine owns the frame buffer (the open
			// payload aliases it).
			s.serveStreamOpen(rd.cw, rd.streams, op, buf)
		case frameStreamCredit:
			if id, n, ok := decodeStreamCredit(*buf); ok {
				if st := rd.streams.get(id); st != nil {
					st.grant(n)
				}
			}
			putBuf(buf)
		case frameStreamClose:
			if cl, ok := decodeStreamClose(*buf); ok {
				if st := rd.streams.remove(cl.id); st != nil {
					st.closeRemote()
				}
			}
			putBuf(buf)
		default:
			putBuf(buf)
			s.teardown(rd) // a frame kind only servers send
			return
		}
	}
}

// authEqual compares a wire auth field against the configured token in
// constant time.
func authEqual(auth []byte, token string) bool {
	return subtle.ConstantTimeCompare(auth, []byte(token)) == 1
}

// lookupHandler resolves a method and checks auth. method and auth may
// alias per-connection buffers; nothing is retained.
func (s *Server) lookupHandler(method, auth []byte) (handlerFunc, string) {
	s.mu.RLock()
	h, ok := s.handlers[string(method)]
	token := s.token
	s.mu.RUnlock()
	if token != "" && !authEqual(auth, token) {
		return nil, "srpc: authentication failed"
	}
	if !ok {
		return nil, "srpc: unknown method " + string(method)
	}
	return h, ""
}

// serveRequest runs one request to completion on the calling goroutine:
// handler, response encode, one writeFrame.
func (s *Server) serveRequest(cw *connWriter, h handlerFunc, errMsg string, id uint64, p binPayload, buf *[]byte) {
	var result any
	if errMsg == "" {
		var err error
		result, err = h(p)
		if err != nil {
			errMsg = err.Error()
		}
	}
	out := getBuf()
	full, frame, err := encodeResponseFrame(*out, id, errMsg, result)
	putBuf(buf) // the handler is done with the request payload
	if err != nil {
		full, frame, _ = encodeResponseFrame(full, id, "srpc: marshalling result: "+err.Error(), nil)
	}
	*out = full
	cw.writeFrame(frame)
	putBuf(out)
}

// encodeResponseFrame builds a complete response frame in buf, returning
// the (possibly regrown) buffer and the frame window into it.
func encodeResponseFrame(buf []byte, id uint64, errMsg string, result any) (full, frame []byte, err error) {
	b, err := appendResponse(beginFrame(buf), id, errMsg, result)
	if err != nil {
		return b, nil, err
	}
	return b, finishFrame(b, frameResponse), nil
}

// Close stops accepting, closes every open connection and waits for the
// goroutines that served them: a spare is counted in s.wg from its go to
// its exit, and the teardown of its connection ends it.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// RemoteError wraps a server-side failure string.
type RemoteError struct{ Message string }

// Error implements error.
func (e *RemoteError) Error() string { return e.Message }

// ErrClientClosed is returned by calls on an explicitly Closed client.
var ErrClientClosed = errors.New("srpc: client closed")

// ErrConnClosed is returned — promptly, not after the call timeout — by
// every call pending when the peer closes the connection mid-call, and by
// calls issued after the connection was lost. Distinct from
// ErrClientClosed so requestors can tell a dead provider (rebind to an
// equivalent one) from their own orderly shutdown.
var ErrConnClosed = errors.New("srpc: connection closed by peer")

// ErrTimeout is wrapped by per-call deadline expiries.
var ErrTimeout = errors.New("srpc: call timed out")

// callResult is what the read loop (or failAll) delivers to a waiter: a
// response plus the pooled frame buffer its slices alias, which the
// waiter returns to the pool (an abandoned one is left to the GC), or
// the error that ended the connection.
type callResult struct {
	resp binResponse
	buf  *[]byte
	err  error
}

// Client is a connection to an srpc server, safe for concurrent calls.
type Client struct {
	conn    net.Conn
	timeout time.Duration
	clock   clockwork.Clock

	mu      sync.Mutex
	token   string
	nextID  uint64
	pending map[uint64]chan callResult
	// streams are the open client streams keyed by stream id; the read
	// loop routes data/close frames to them.
	streams      map[uint64]*ClientStream
	nextStreamID uint64
	closed       bool
	// lost records why the connection died underneath us (nil after an
	// explicit Close), so later calls fail with ErrConnClosed naming it.
	lost error
	done chan struct{}
	// inj, when set, injects faults at site "<site>/send" before each
	// request (chaos testing only; nil in production).
	inj     *faults.Injector
	injSite string
}

// Dial connects to an srpc server. timeout bounds each call (0 = 10s).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		timeout: timeout,
		clock:   clockwork.Real(),
		pending: make(map[uint64]chan callResult),
		done:    make(chan struct{}),
	}
	// TCP order puts the magic ahead of request #1, so nothing waits for
	// the server's: calls and streams frame from the first byte.
	if _, err := conn.Write(magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// SetToken attaches the shared secret to every subsequent call.
func (c *Client) SetToken(token string) {
	c.mu.Lock()
	c.token = token
	c.mu.Unlock()
}

// SetFaultInjector arms chaos hooks on this client: each call consults
// inj at site "<site>/send" — injected errors fail the call, drops lose
// the request in flight (the call then hits its deadline).
func (c *Client) SetFaultInjector(inj *faults.Injector, site string) {
	c.mu.Lock()
	c.inj = inj
	c.injSite = site
	c.mu.Unlock()
}

func (c *Client) readLoop() {
	defer close(c.done)
	// Whatever ends the loop — EOF, a peer that is not an srpc server, a
	// framing error — the connection is of no further use.
	defer c.conn.Close()
	reader := bufio.NewReader(c.conn)
	if err := readMagic(reader); err != nil {
		c.failAll(err)
		return
	}
	for {
		tag, buf, err := readFrame(reader)
		if err != nil {
			c.failAll(err)
			return
		}
		switch tag {
		case frameResponse:
			resp, ok := decodeResponse(*buf)
			if !ok {
				putBuf(buf)
				continue // malformed body inside a well-formed frame; skip it
			}
			c.deliver(resp.id, callResult{resp: resp, buf: buf})
		case frameStreamData:
			d, ok := decodeStreamData(*buf)
			if !ok {
				putBuf(buf)
				continue
			}
			// Ownership of buf transfers to the stream's queue.
			c.deliverData(d, buf)
		case frameStreamClose:
			if cl, ok := decodeStreamClose(*buf); ok {
				var err error
				if cl.isErr {
					err = &RemoteError{Message: string(cl.errMsg)}
				}
				c.finishStream(cl.id, err)
			}
			putBuf(buf)
		default:
			putBuf(buf)
			c.failAll(fmt.Errorf("srpc: frame tag %#x is not one a server sends", tag))
			return
		}
	}
}

// deliver hands a result to the waiter registered for id; an abandoned
// result's frame buffer goes straight back to the pool.
func (c *Client) deliver(id uint64, res callResult) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		ch <- res
	} else {
		putBuf(res.buf)
	}
}

// failAll runs when the read loop dies: every pending call and open
// stream fails fast with ErrConnClosed instead of waiting out its
// deadline.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[uint64]chan callResult)
	if !c.closed {
		c.lost = err
	}
	c.closed = true
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- callResult{err: fmt.Errorf("%w: %v", ErrConnClosed, err)}
	}
	c.failStreams(err)
}

// Lost reports whether the connection died underneath the client: every
// further call fails with ErrConnClosed, and only a fresh Dial reaches
// the peer again. A client its owner Closed is not lost.
func (c *Client) Lost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost != nil
}

// closedErr says why a closed client cannot send what: the connection
// was lost (lost is Client.lost), or the caller closed it.
func closedErr(lost error, what string) error {
	if lost != nil {
		return fmt.Errorf("%w: %s not sent (%v)", ErrConnClosed, what, lost)
	}
	return ErrClientClosed
}

// Call invokes method with params, unmarshalling the result into out
// (which may be nil to discard), bounded by the client's default timeout.
func (c *Client) Call(method string, params any, out any) error {
	return c.CallWithTimeout(method, params, out, 0)
}

// CallWithTimeout is Call with a per-call deadline override (0 = the
// client default), for a caller that bounds one call tighter or looser
// than the rest.
func (c *Client) CallWithTimeout(method string, params any, out any, timeout time.Duration) error {
	return c.CallWithToken(method, params, out, timeout, "")
}

// CallWithToken is CallWithTimeout authenticating this one call with
// token instead of the connection's SetToken secret ("" = the
// connection's). The request frame carries its auth per request, so
// callers with different secrets can share one connection; SetToken stays
// for connections someone owns outright.
func (c *Client) CallWithToken(method string, params any, out any, timeout time.Duration, token string) error {
	if timeout <= 0 {
		timeout = c.timeout
	}
	c.mu.Lock()
	if c.closed {
		lost := c.lost
		c.mu.Unlock()
		return closedErr(lost, method)
	}
	c.nextID++
	id := c.nextID
	if token == "" {
		token = c.token
	}
	inj, injSite := c.inj, c.injSite
	c.mu.Unlock()

	// Encode the whole frame before the call is registered: a marshalling
	// failure must not leave an orphaned pending-map entry behind (the
	// read loop would never resolve it, and failAll would signal a channel
	// nobody is listening on). The id above is burnt on encode failure —
	// ids only correlate, a gap is harmless.
	fbuf := getBuf()
	b, err := appendRequest(beginFrame(*fbuf), id, method, token, params)
	if err != nil {
		putBuf(fbuf)
		return fmt.Errorf("srpc: marshalling params: %w", err)
	}
	*fbuf = b
	frame := finishFrame(b, frameRequest)

	ch := make(chan callResult, 1)
	c.mu.Lock()
	if c.closed {
		lost := c.lost
		c.mu.Unlock()
		putBuf(fbuf)
		return closedErr(lost, method)
	}
	c.pending[id] = ch
	c.mu.Unlock()

	dropped := false
	if inj != nil {
		if err := inj.Inject(injSite + FaultSiteSend); err != nil {
			c.abandon(id)
			putBuf(fbuf)
			return err
		}
		// A dropped request is never written to the wire; the call
		// waits out its deadline exactly as with real message loss.
		dropped = inj.Drop(injSite + FaultSiteSend)
	}
	if !dropped {
		// One conn.Write per frame: net serializes concurrent writes, so
		// frames from concurrent callers never interleave.
		_, err := c.conn.Write(frame)
		putBuf(fbuf)
		if err != nil {
			c.abandon(id)
			return fmt.Errorf("srpc: sending request: %w", err)
		}
	} else {
		putBuf(fbuf)
	}

	timer := c.clock.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return decodeResult(res, out)
	case <-timer.C():
		c.abandon(id)
		return fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
	}
}

// decodeResult materializes one delivered result into out (nil
// discards), returning the frame buffer to the pool.
func decodeResult(res callResult, out any) error {
	if res.err != nil {
		return res.err
	}
	defer putBuf(res.buf)
	if res.resp.isErr {
		return &RemoteError{Message: string(res.resp.errMsg)}
	}
	if out == nil {
		return nil
	}
	if err := decodePayload(res.resp.payload, out); err != nil {
		return fmt.Errorf("srpc: unmarshalling result: %w", err)
	}
	return nil
}

func (c *Client) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	<-c.done
}
