// Stream multiplexing (ROADMAP item 2): many server-push streams share
// one connection, so a subscriber fleet does not pay a TCP connection
// (or a poll loop) per subscription. Streams ride the same
// length-prefixed framing as requests/responses (codec.go), with four
// frame kinds carrying a per-connection stream ID:
//
//	open   (0xB3, client→server): uvarint streamID | 1B method-prefix
//	       index | uvarint suffix len + suffix | uvarint auth len + auth |
//	       uvarint initial credit | 1B payload shape | payload
//	data   (0xB4, server→client): uvarint streamID | 1B payload shape |
//	       payload
//	credit (0xB5, client→server): uvarint streamID | uvarint n
//	close  (0xB6, both ways):     uvarint streamID | 1B status
//	       (0 ok, 1 error) | error message (rest)
//
// Flow control is credit-based and strictly per stream: the server may
// have at most `credit` unacknowledged data frames outstanding, where
// credit is granted by the client at open time and replenished as it
// consumes. A server-side producer that finds the window empty gets
// ErrNoCredit back immediately — it never parks — so one stalled
// subscriber cannot block its publisher or sibling streams on the same
// connection. Bytes in flight are bounded by the sum of open windows,
// which keeps a stalled peer's TCP backpressure from wedging the shared
// connection writer for longer than one window.
package srpc

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sensorcer/internal/wire"
)

// ErrNoCredit is returned by ServerStream.TrySend when the subscriber's
// credit window is exhausted. The caller decides what to do with the
// undelivered payload (the subscription plane conflates); the send never
// blocks.
var ErrNoCredit = errors.New("srpc: stream credit exhausted")

// ErrStreamClosed is returned by sends and receives on a stream that was
// closed by either end.
var ErrStreamClosed = errors.New("srpc: stream closed")

// ErrStreamOverrun closes a client stream whose peer sent more data
// frames than the granted credit allows — a protocol violation.
var ErrStreamOverrun = errors.New("srpc: peer overran the stream credit window")

// StreamHandler serves one opened stream: params arrive like request
// params (decoded into P), and st stays valid until the stream closes.
// A non-nil error rejects the open — the client sees it as the stream
// error. On success the handler's owner keeps st and pushes data frames
// with TrySend until either side closes.
type streamHandlerFunc func(p binPayload, st *ServerStream) error

// HandleStreamFunc registers a typed stream-open handler; params decode
// into P as for HandleFunc. The handler runs on its own goroutine per
// open.
func HandleStreamFunc[P any](s *Server, method string, fn func(P, *ServerStream) error) {
	s.mu.Lock()
	if s.streamHandlers == nil {
		s.streamHandlers = make(map[string]streamHandlerFunc)
	}
	s.streamHandlers[method] = func(p binPayload, st *ServerStream) error {
		var v P
		if err := decodePayload(p, &v); err != nil {
			return fmt.Errorf("srpc: bad stream params for %s: %w", method, err)
		}
		return fn(v, st)
	}
	s.mu.Unlock()
}

// ServerStream is the server half of one multiplexed stream. Safe for
// one producer goroutine; TrySend never blocks on the subscriber.
type ServerStream struct {
	id uint64
	cw *connWriter

	mu     sync.Mutex
	credit uint64
	closed bool
	// ready is signaled (capacity 1) whenever credit arrives, so a
	// producer that saw ErrNoCredit can park on Ready() — on its own
	// select, never inside the send.
	ready chan struct{}
	// done closes when the stream is finished from either side.
	done chan struct{}
}

func newServerStream(id uint64, cw *connWriter, credit uint64) *ServerStream {
	return &ServerStream{
		id:     id,
		cw:     cw,
		credit: credit,
		ready:  make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// Credit reports the current send window.
func (st *ServerStream) Credit() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.credit
}

// Ready is signaled each time the subscriber grants credit. Producers
// select on it (alongside their own cancellation) after ErrNoCredit.
func (st *ServerStream) Ready() <-chan struct{} { return st.ready }

// Done closes when the stream ends — the client closed it, the server
// closed it, or the connection dropped. Producers must stop sending and
// release the stream.
func (st *ServerStream) Done() <-chan struct{} { return st.done }

// TrySend queues one data frame if the credit window allows, consuming
// one credit. It returns ErrNoCredit with the window empty and
// ErrStreamClosed after either side closed — it never blocks on the
// subscriber's progress. The frame leaves with the connection's next
// write: at the latest one gather window later, at once after Flush.
func (st *ServerStream) TrySend(payload any) error {
	if err := st.Queue(payload); err != nil {
		return err
	}
	st.cw.kickLazy()
	return nil
}

// Queue is TrySend for a producer that ends its burst with Flush: the
// frame waits for that Flush (or any other write on the connection) and
// does not wake the connection's flusher itself, so a burst across many
// streams costs the flusher one wake-up and no gather timer.
func (st *ServerStream) Queue(payload any) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrStreamClosed
	}
	if st.credit == 0 {
		st.mu.Unlock()
		return ErrNoCredit
	}
	st.credit--
	st.mu.Unlock()

	buf := getBuf()
	defer putBuf(buf)
	b, err := appendPayload(wire.AppendUvarint(beginFrame(*buf), st.id), payload)
	*buf = b
	if err != nil {
		st.refund()
		return fmt.Errorf("srpc: marshalling stream payload: %w", err)
	}
	st.cw.queue(finishFrame(b, frameStreamData))
	return nil
}

// Flush makes the frames TrySend or Queue queued on this stream's
// connection leave now instead of after the gather window. A producer
// that sends a burst across many streams calls it once per stream after
// the last send: every frame is already queued by then, so the burst
// costs one write per connection. It never blocks.
func (st *ServerStream) Flush() { st.cw.flush() }

// refund returns one consumed credit after a failed encode.
func (st *ServerStream) refund() {
	st.mu.Lock()
	st.credit++
	st.mu.Unlock()
}

// grant adds n credits and wakes a parked producer.
func (st *ServerStream) grant(n uint64) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.credit += n
	st.mu.Unlock()
	select {
	case st.ready <- struct{}{}:
	default:
	}
}

// Close ends the stream from the server side, notifying the client (err
// nil = orderly end, non-nil = stream error). Idempotent; later closes
// and closes after a client close are no-ops.
func (st *ServerStream) Close(err error) {
	if !st.finish() {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	buf := getBuf()
	b := appendStreamClose(beginFrame(*buf), st.id, msg)
	*buf = b
	_ = st.cw.writeFrame(finishFrame(b, frameStreamClose)) // a dead connection fails on the read side
	putBuf(buf)
}

// finish transitions to closed exactly once, signalling Done and Ready
// (so a parked producer wakes to observe the closure).
func (st *ServerStream) finish() bool {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return false
	}
	st.closed = true
	st.mu.Unlock()
	close(st.done)
	select {
	case st.ready <- struct{}{}:
	default:
	}
	return true
}

// closeRemote tears the stream down without writing (client closed it,
// or the connection died).
func (st *ServerStream) closeRemote() { st.finish() }

// --- stream frame bodies ------------------------------------------------

// appendStreamOpen encodes an open body after beginFrame.
func appendStreamOpen(buf []byte, id uint64, method, auth string, credit uint64, params any) ([]byte, error) {
	buf = wire.AppendUvarint(buf, id)
	idx, suffix := splitMethod(method)
	buf = append(buf, idx)
	buf = wire.AppendString(buf, suffix)
	buf = wire.AppendString(buf, auth)
	buf = wire.AppendUvarint(buf, credit)
	return appendPayload(buf, params)
}

// binStreamOpen is a decoded open body; method aliases the scratch
// buffer, auth and payload alias the frame body.
type binStreamOpen struct {
	id      uint64
	method  []byte
	auth    []byte
	credit  uint64
	payload binPayload
}

func decodeStreamOpen(body, scratch []byte) (op binStreamOpen, scratchOut []byte, ok bool) {
	scratchOut = scratch
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok || len(rest) < 1 {
		return binStreamOpen{}, scratchOut, false
	}
	idx := rest[0]
	suffix, rest, ok := wire.ConsumeBytes(rest[1:])
	if !ok {
		return binStreamOpen{}, scratchOut, false
	}
	method, ok := appendMethod(scratch[:0], idx, suffix)
	scratchOut = method
	if !ok {
		return binStreamOpen{}, scratchOut, false
	}
	auth, rest, ok := wire.ConsumeBytes(rest)
	if !ok {
		return binStreamOpen{}, scratchOut, false
	}
	credit, rest, ok := wire.ConsumeUvarint(rest)
	if !ok || len(rest) < 1 {
		return binStreamOpen{}, scratchOut, false
	}
	return binStreamOpen{
		id:      id,
		method:  method,
		auth:    auth,
		credit:  credit,
		payload: binPayload{shape: rest[0], data: rest[1:]},
	}, scratchOut, true
}

// binStreamData is a decoded data body; payload aliases the frame body.
type binStreamData struct {
	id      uint64
	payload binPayload
}

func decodeStreamData(body []byte) (binStreamData, bool) {
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok || len(rest) < 1 {
		return binStreamData{}, false
	}
	return binStreamData{id: id, payload: binPayload{shape: rest[0], data: rest[1:]}}, true
}

func appendStreamCredit(buf []byte, id, n uint64) []byte {
	return wire.AppendUvarint(wire.AppendUvarint(buf, id), n)
}

func decodeStreamCredit(body []byte) (id, n uint64, ok bool) {
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok {
		return 0, 0, false
	}
	n, rest, ok = wire.ConsumeUvarint(rest)
	if !ok || len(rest) != 0 {
		return 0, 0, false
	}
	return id, n, true
}

func appendStreamClose(buf []byte, id uint64, errMsg string) []byte {
	buf = wire.AppendUvarint(buf, id)
	if errMsg != "" {
		buf = append(buf, 1)
		return append(buf, errMsg...)
	}
	return append(buf, 0)
}

// binStreamClose is a decoded close body; errMsg aliases the frame body.
type binStreamClose struct {
	id     uint64
	isErr  bool
	errMsg []byte
}

func decodeStreamClose(body []byte) (binStreamClose, bool) {
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok || len(rest) < 1 {
		return binStreamClose{}, false
	}
	return binStreamClose{id: id, isErr: rest[0] == 1, errMsg: rest[1:]}, true
}

// --- server connection plumbing -----------------------------------------

// connStreams tracks the live server streams of one connection.
type connStreams struct {
	mu      sync.Mutex
	streams map[uint64]*ServerStream
}

func (cs *connStreams) add(st *ServerStream) {
	cs.mu.Lock()
	if cs.streams == nil {
		cs.streams = make(map[uint64]*ServerStream)
	}
	cs.streams[st.id] = st
	cs.mu.Unlock()
}

func (cs *connStreams) get(id uint64) *ServerStream {
	cs.mu.Lock()
	st := cs.streams[id]
	cs.mu.Unlock()
	return st
}

func (cs *connStreams) remove(id uint64) *ServerStream {
	cs.mu.Lock()
	st := cs.streams[id]
	delete(cs.streams, id)
	cs.mu.Unlock()
	return st
}

// closeAll tears every stream down (connection gone).
func (cs *connStreams) closeAll() {
	cs.mu.Lock()
	streams := cs.streams
	cs.streams = nil
	cs.mu.Unlock()
	for _, st := range streams {
		st.closeRemote()
	}
}

// serveStreamOpen dispatches one decoded open frame: resolve the stream
// handler, check auth, run the handler on its own goroutine. The open
// frame's payload aliases buf, which the goroutine owns and returns.
func (s *Server) serveStreamOpen(cw *connWriter, cs *connStreams, op binStreamOpen, buf *[]byte) {
	s.mu.RLock()
	h, ok := s.streamHandlers[string(op.method)]
	token := s.token
	s.mu.RUnlock()
	errMsg := ""
	if token != "" && !authEqual(op.auth, token) {
		errMsg = "srpc: authentication failed"
	} else if !ok {
		errMsg = "srpc: unknown stream method " + string(op.method)
	}
	st := newServerStream(op.id, cw, op.credit)
	if errMsg == "" {
		cs.add(st)
	}
	s.wg.Add(1)
	go func(payload binPayload, buf *[]byte) {
		defer s.wg.Done()
		if errMsg != "" {
			putBuf(buf)
			st.Close(errors.New(errMsg))
			return
		}
		err := h(payload, st)
		putBuf(buf)
		if err != nil {
			cs.remove(st.id)
			st.Close(err)
		}
	}(op.payload, buf)
}

// --- client side --------------------------------------------------------

// streamMsg is what the read loop delivers to a ClientStream: a pooled
// frame buffer the payload aliases, or a terminal error.
type streamMsg struct {
	payload binPayload
	buf     *[]byte
	err     error
}

// ClientStream is the client half of one multiplexed stream: Recv
// returns server-pushed payloads in order, granting credit back to the
// server as the consumer keeps up.
type ClientStream struct {
	c      *Client
	id     uint64
	window uint64
	msgs   chan streamMsg

	mu       sync.Mutex
	consumed uint64
	closed   bool
	err      error
}

// DefaultStreamWindow is the initial credit OpenStream grants when the
// caller passes 0.
const DefaultStreamWindow = 32

// OpenStream opens a multiplexed stream for method with the given
// params. window is the credit window — the maximum number of data
// frames the server may have in flight (0 = DefaultStreamWindow). Open
// errors the server reports (unknown method, rejected subscription)
// surface on the first Recv.
func (c *Client) OpenStream(method string, params any, window uint64) (*ClientStream, error) {
	if window == 0 {
		window = DefaultStreamWindow
	}
	c.mu.Lock()
	if c.closed {
		lost := c.lost
		c.mu.Unlock()
		return nil, closedErr(lost, "stream open "+method)
	}
	c.nextStreamID++
	st := &ClientStream{
		c:      c,
		id:     c.nextStreamID,
		window: window,
		// Headroom past the window tolerates frames already in flight
		// when a grant raced out; a peer past it is violating the
		// protocol and the stream closes with ErrStreamOverrun.
		msgs: make(chan streamMsg, window+4),
	}
	token := c.token
	if c.streams == nil {
		c.streams = make(map[uint64]*ClientStream)
	}
	c.streams[st.id] = st
	c.mu.Unlock()

	fbuf := getBuf()
	b, err := appendStreamOpen(beginFrame(*fbuf), st.id, method, token, window, params)
	if err != nil {
		putBuf(fbuf)
		c.dropStream(st.id)
		return nil, fmt.Errorf("srpc: marshalling stream params: %w", err)
	}
	*fbuf = b
	frame := finishFrame(b, frameStreamOpen)
	if err := c.cw.writeFrame(frame); err != nil {
		putBuf(fbuf)
		c.dropStream(st.id)
		return nil, fmt.Errorf("srpc: opening stream: %w", err)
	}
	putBuf(fbuf)
	return st, nil
}

// dropStream forgets a stream without signalling it.
func (c *Client) dropStream(id uint64) {
	c.mu.Lock()
	delete(c.streams, id)
	c.mu.Unlock()
}

// Recv waits for the next data frame and decodes it into out (a
// BinaryUnmarshaler for fast-path shapes, any JSON target for shape 0;
// nil discards). It returns io.EOF after an orderly server close, a
// RemoteError for a server-reported stream error, and ErrConnClosed when
// the connection died. timeout 0 means wait indefinitely — streams are
// long-lived and silence is legal.
func (st *ClientStream) Recv(out any, timeout time.Duration) error {
	if timeout <= 0 {
		// Plain receive: the no-timeout wait skips the select machinery —
		// worth it at fan-out scale, where every subscriber sits here for
		// every update.
		msg, ok := <-st.msgs
		return st.consume(msg, ok, out)
	}
	timer := st.c.clock.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg, ok := <-st.msgs:
		return st.consume(msg, ok, out)
	case <-timer.C():
		return fmt.Errorf("%w: stream recv after %v", ErrTimeout, timeout)
	}
}

// consume handles one received message (or the channel close).
func (st *ClientStream) consume(msg streamMsg, ok bool, out any) error {
	if !ok {
		return st.finalErr()
	}
	if err := st.decodeMsg(msg, out); err != nil {
		return err
	}
	st.maybeGrant()
	return nil
}

// decodeMsg materializes one delivered frame, returning its pooled
// buffer.
func (st *ClientStream) decodeMsg(msg streamMsg, out any) error {
	if msg.err != nil {
		return msg.err
	}
	defer putBuf(msg.buf)
	if out == nil {
		return nil
	}
	if err := decodePayload(msg.payload, out); err != nil {
		return fmt.Errorf("srpc: unmarshalling stream payload: %w", err)
	}
	return nil
}

// maybeGrant replenishes the server's window once half of it has been
// consumed — batched so a busy stream pays one credit frame per
// window/2 data frames, not one per frame. The frame is lazy: the grants
// this connection's streams make in one burst leave in one write, at
// most one gather window later, while the half window still open keeps
// the server sending.
func (st *ClientStream) maybeGrant() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.consumed++
	if st.consumed < (st.window+1)/2 {
		st.mu.Unlock()
		return
	}
	n := st.consumed
	st.consumed = 0
	st.mu.Unlock()

	buf := getBuf()
	b := appendStreamCredit(beginFrame(*buf), st.id, n)
	*buf = b
	st.c.cw.queue(finishFrame(b, frameStreamCredit))
	st.c.cw.kickLazy()
	putBuf(buf)
}

// finalErr reports why the stream ended.
func (st *ClientStream) finalErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	return io.EOF
}

// Close ends the stream from the client side. In-flight data frames are
// discarded; the server observes the close and stops producing.
func (st *ClientStream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	if st.err == nil {
		st.err = ErrStreamClosed
	}
	st.mu.Unlock()
	st.c.dropStream(st.id)
	buf := getBuf()
	b := appendStreamClose(beginFrame(*buf), st.id, "")
	*buf = b
	_ = st.c.cw.writeFrame(finishFrame(b, frameStreamClose)) // a dead connection ends the server half anyway
	putBuf(buf)
	st.drain()
}

// drain releases pooled buffers still queued after a close.
func (st *ClientStream) drain() {
	for {
		select {
		case msg, ok := <-st.msgs:
			if !ok {
				return
			}
			if msg.buf != nil {
				putBuf(msg.buf)
			}
		default:
			return
		}
	}
}

// deliverData routes one data frame to its stream; ownership of buf
// transfers to the stream's channel. Called from the read loop only.
func (c *Client) deliverData(d binStreamData, buf *[]byte) {
	c.mu.Lock()
	st := c.streams[d.id]
	c.mu.Unlock()
	if st == nil {
		putBuf(buf)
		return
	}
	select {
	case st.msgs <- streamMsg{payload: d.payload, buf: buf}:
	default:
		// The peer shipped more frames than it had credit for.
		putBuf(buf)
		c.finishStream(d.id, ErrStreamOverrun)
	}
}

// finishStream ends a client stream with err (nil = orderly close).
// Called from the read loop (the only msgs sender), so closing the
// channel is safe.
func (c *Client) finishStream(id uint64, err error) {
	c.mu.Lock()
	st := c.streams[id]
	delete(c.streams, id)
	c.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.err = err
	st.mu.Unlock()
	close(st.msgs)
}

// failStreams ends every open stream when the connection dies. Runs on
// the read loop's exit path — after the loop stopped sending.
func (c *Client) failStreams(err error) {
	c.mu.Lock()
	streams := c.streams
	c.streams = nil
	c.mu.Unlock()
	for _, st := range streams {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			continue
		}
		st.closed = true
		st.err = fmt.Errorf("%w: %v", ErrConnClosed, err)
		st.mu.Unlock()
		close(st.msgs)
	}
}
