package srpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensorcer/internal/wire"
)

// pointShape is a test-only hot shape: both marshal directions plus a
// hit counter proving the fast path (not the JSON fallback) carried it.
type pointShape struct {
	X, Y int64
}

const shapePoint byte = 200 // test-only tag, outside remote/wire ranges

var pointFastDecodes atomic.Int64

func (p pointShape) SrpcShape() byte { return shapePoint }

func (p pointShape) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendSvarint(buf, p.X)
	return wire.AppendSvarint(buf, p.Y), nil
}

func (p *pointShape) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapePoint {
		return fmt.Errorf("pointShape: unexpected shape %d", shape)
	}
	x, rest, ok := wire.ConsumeSvarint(data)
	if !ok {
		return fmt.Errorf("pointShape: truncated x")
	}
	y, rest, ok := wire.ConsumeSvarint(rest)
	if !ok || len(rest) != 0 {
		return fmt.Errorf("pointShape: truncated y")
	}
	p.X, p.Y = x, y
	pointFastDecodes.Add(1)
	return nil
}

func TestSplitMethodLongestPrefix(t *testing.T) {
	for _, tc := range []struct {
		method string
		idx    byte
		suffix string
	}{
		{"repl.ship.s0", 1, "s0"},
		{"repl.snapshot.s0", 2, "s0"},
		{"registrar.lookup", 4, ""},
		{"registrar.register", 5, "register"}, // registrar.lookup is longer but doesn't match
		{"accessor.getReadings.Neem", 8, "Neem"},
		{"totally.unknown", 0, "totally.unknown"},
		{"", 0, ""},
	} {
		idx, suffix := splitMethod(tc.method)
		if idx != tc.idx || suffix != tc.suffix {
			t.Errorf("splitMethod(%q) = %d, %q; want %d, %q", tc.method, idx, suffix, tc.idx, tc.suffix)
		}
		// Reassembly must invert the split.
		full, ok := appendMethod(nil, idx, []byte(suffix))
		if !ok || string(full) != tc.method {
			t.Errorf("appendMethod(%d, %q) = %q, %v", idx, suffix, full, ok)
		}
	}
	if _, ok := appendMethod(nil, byte(len(methodPrefixes)), nil); ok {
		t.Fatal("appendMethod accepted an out-of-range prefix index")
	}
}

// TestRequestFrameRoundTrip drives one request through the full encode
// path (beginFrame → appendRequest → finishFrame) and back through the
// wire-read path (readFrame → decodeRequest).
func TestRequestFrameRoundTrip(t *testing.T) {
	b := beginFrame(nil)
	b, err := appendRequest(b, 42, "repl.ship.s0", "secret", pointShape{X: -7, Y: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameRequest)

	tag, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil || tag != frameRequest {
		t.Fatalf("readFrame = %#x, %v", tag, err)
	}
	req, _, ok := decodeRequest(*body, nil)
	if !ok {
		t.Fatal("decodeRequest rejected a valid frame")
	}
	if req.id != 42 || string(req.method) != "repl.ship.s0" || string(req.auth) != "secret" {
		t.Fatalf("req = %+v", req)
	}
	var p pointShape
	if err := p.UnmarshalSrpc(req.payload.shape, req.payload.data); err != nil {
		t.Fatal(err)
	}
	if p.X != -7 || p.Y != 1<<60 {
		t.Fatalf("payload = %+v", p)
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	// Success payload.
	b := beginFrame(nil)
	b, err := appendResponse(b, 9, "", pointShape{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameResponse)
	res, ok := decodeResponse(frame[2:]) // 1B tag + 1B length for this small frame
	if !ok || res.isErr || res.id != 9 || res.payload.shape != shapePoint {
		t.Fatalf("res = %+v, ok=%v", res, ok)
	}
	// Error response.
	b = beginFrame(nil)
	b, err = appendResponse(b, 10, "boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	frame = finishFrame(b, frameResponse)
	res, ok = decodeResponse(frame[2:])
	if !ok || !res.isErr || res.id != 10 || string(res.errMsg) != "boom" {
		t.Fatalf("error res = %+v, ok=%v", res, ok)
	}
}

// TestDecodeRequestMalformed feeds decodeRequest systematically truncated
// bodies: every prefix of a valid body must be cleanly rejected (the
// frame-length byte count makes most prefixes invalid bodies).
func TestDecodeRequestTruncations(t *testing.T) {
	b := beginFrame(nil)
	b, err := appendRequest(b, 7, "registrar.lookup", "tok", json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	frame := finishFrame(b, frameRequest)
	body := frame[2:] // tag + 1B uvarint length
	if _, _, ok := decodeRequest(body, nil); !ok {
		t.Fatal("full body must decode")
	}
	for i := 0; i < 5 && i < len(body); i++ {
		if _, _, ok := decodeRequest(body[:i], nil); ok {
			t.Fatalf("truncated body (%d bytes) decoded", i)
		}
	}
}

func TestReadFrameBodyRejectsOversize(t *testing.T) {
	var in []byte
	in = wire.AppendUvarint(in, MaxFrame+1)
	var buf []byte
	err := readFrameBody(bufio.NewReader(bytes.NewReader(in)), &buf)
	if err != errFrameTooBig {
		t.Fatalf("err = %v, want errFrameTooBig", err)
	}
}

// TestReadFrameBodyBoundedByReceived proves a hostile length prefix can't
// force a large allocation: the claimed length is just under MaxFrame but
// the peer sends only a few bytes, so the grown buffer must track what
// actually arrived, not the claim.
func TestReadFrameBodyBoundedByReceived(t *testing.T) {
	var in []byte
	in = wire.AppendUvarint(in, MaxFrame-1)
	in = append(in, []byte("only a few bytes")...)
	var buf []byte
	err := readFrameBody(bufio.NewReader(bytes.NewReader(in)), &buf)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if cap(buf) > 128<<10 {
		t.Fatalf("hostile prefix allocated %d bytes for a 16-byte body", cap(buf))
	}
}

// TestBinaryNegotiationAndFastPath is the end-to-end round trip: the very
// first call on a fresh connection is framed, with the fast-path encoders
// engaged on both the request and the response payload.
func TestBinaryNegotiationAndFastPath(t *testing.T) {
	s := NewServer()
	HandleFunc(s, "swap", func(p pointShape) (any, error) {
		return pointShape{X: p.Y, Y: p.X}, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The fast-path counter must move by exactly two per call: request
	// decode at the server, response decode at the client.
	before := pointFastDecodes.Load()
	big := int64(1)<<60 + 3
	var out pointShape
	if err := c.Call("swap", pointShape{X: big, Y: -big}, &out); err != nil {
		t.Fatal(err)
	}
	if out.X != -big || out.Y != big {
		t.Fatalf("out = %+v", out)
	}
	if got := pointFastDecodes.Load() - before; got != 2 {
		t.Fatalf("fast-path decodes = %d, want 2 (request + response)", got)
	}
}

// TestBinaryJSONFallbackInsideFrames: types without hot-shape encoders
// ride as shape-0 JSON payloads inside frames.
func TestBinaryJSONFallbackInsideFrames(t *testing.T) {
	s := newServer(t)
	c := dial(t, s)
	var out float64
	if err := c.Call("add", addParams{A: 20, B: 22}, &out); err != nil || out != 42 {
		t.Fatalf("fallback call = %v, %v", out, err)
	}
	// Remote errors survive the framing too.
	if err := c.Call("fail", struct{}{}, nil); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

// silentListener accepts TCP connections and never writes a byte; each
// accepted connection is handed to the test.
func silentListener(t *testing.T) (addr string, conns <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ch <- conn
		}
	}()
	return ln.Addr().String(), ch
}

// TestClientFramesFromFirstByte: nothing waits for the server's magic.
// Against a peer that never writes anything, the first bytes a fresh
// Dial puts on the wire are the magic followed by a frame — a request
// for Call, a stream open for OpenStream.
func TestClientFramesFromFirstByte(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(c *Client) error
		tag  byte
	}{
		{"call", func(c *Client) error {
			err := c.CallWithTimeout("add", addParams{A: 1, B: 2}, nil, 50*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				return fmt.Errorf("call against a mute peer = %v, want ErrTimeout", err)
			}
			return nil
		}, frameRequest},
		{"open stream", func(c *Client) error {
			_, err := c.OpenStream("subscribe.ticks", ticksParams{Count: 1}, 4)
			return err
		}, frameStreamOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, conns := silentListener(t)
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			if err := tc.send(c); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("send took %v: something waited for the peer", elapsed)
			}
			peer := <-conns
			defer peer.Close()
			peer.SetReadDeadline(time.Now().Add(2 * time.Second))
			r := bufio.NewReader(peer)
			if err := readMagic(r); err != nil {
				t.Fatalf("first bytes on the wire: %v", err)
			}
			tag, _, err := readFrame(r)
			if err != nil || tag != tc.tag {
				t.Fatalf("after the magic: tag %#x, %v; want %#x", tag, err, tc.tag)
			}
		})
	}
}

// readUntilClosed drains conn until the peer closes it (EOF, or a reset
// when the peer closed with our bytes still unread) and returns what
// arrived; a connection still open at the deadline fails the test.
func readUntilClosed(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %d bytes: %v", len(got), err)
	}
	return got
}

// TestServerDropsNonMagicOpeners: a peer whose first five bytes are not
// the magic is closed without a response and without the server reading
// on in search of a line end.
func TestServerDropsNonMagicOpeners(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"legacy JSON line", []byte(`{"id":1,"method":"add","params":{"a":1,"b":2}}` + "\n")},
		{"1 MiB without a newline", bytes.Repeat([]byte{'x'}, 1<<20)},
		{"HTTP probe", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")},
		{"corrupted magic", []byte{0xBF, 's', 'b', '2', '\n'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			raw, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			// The server may close while a large opener is still being
			// written; that write error is the behaviour under test.
			go raw.Write(tc.opener)
			if got := readUntilClosed(t, raw); !bytes.HasPrefix(magic[:], got) {
				t.Fatalf("server answered a non-srpc peer: %q", got)
			}
			// A well-behaved client still works.
			c := dial(t, s)
			var out float64
			if err := c.Call("add", addParams{A: 2, B: 3}, &out); err != nil || out != 5 {
				t.Fatalf("server wedged after a bad opener: %v %v", out, err)
			}
		})
	}
}

// TestClientFailsFastOnBadMagic: a server whose first bytes are not the
// magic fails the in-flight call promptly with ErrConnClosed naming the
// opener — not after the call timeout — and later calls likewise.
func TestClientFailsFastOnBadMagic(t *testing.T) {
	addr, conns := silentListener(t)
	c, err := Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call("add", addParams{A: 1, B: 2}, nil) }()
	peer := <-conns
	defer peer.Close()
	// Answer only once the request is on the wire, so the call is pending.
	if _, err := io.ReadFull(peer, make([]byte, len(magic)+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), `"HTTP/`) {
			t.Fatalf("err = %v, want ErrConnClosed naming the opener", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call waited for its deadline instead of failing on the bad magic")
	}
	err = c.Call("add", addParams{}, nil)
	if !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), `"HTTP/`) {
		t.Fatalf("post-loss call err = %v, want ErrConnClosed naming the opener", err)
	}
	// The client hung up on the impostor.
	readUntilClosed(t, peer)
}

// TestUnknownFrameTagDropsConnection: after a good opening, anything
// that is not a frame the server accepts — an unknown tag, a legacy JSON
// line, a repeated magic, a frame kind only servers send — is a framing
// error that closes the connection, like a bad length prefix.
func TestUnknownFrameTagDropsConnection(t *testing.T) {
	b, err := appendResponse(beginFrame(nil), 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		junk []byte
	}{
		{"unknown tag", []byte{0xB7, 0x00}},
		{"legacy JSON line", []byte(`{"id":2,"method":"add"}` + "\n")},
		{"repeated magic", magic[:]},
		{"response frame sent to a server", finishFrame(b, frameResponse)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			raw, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			rb, err := appendRequest(beginFrame(nil), 1, "add", "", addParams{A: 4, B: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(opened(finishFrame(rb, frameRequest)...)); err != nil {
				t.Fatal(err)
			}
			// The connection is healthy: the request is answered.
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			r := bufio.NewReader(raw)
			if err := readMagic(r); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := readFrame(r); err != nil || tag != frameResponse {
				t.Fatalf("response: tag %#x, %v", tag, err)
			}
			// Then the junk, and a request behind it that must never be
			// answered.
			if _, err := raw.Write(append(append([]byte(nil), tc.junk...), finishFrame(rb, frameRequest)...)); err != nil {
				t.Fatal(err)
			}
			if got := readUntilClosed(t, raw); len(got) != 0 {
				t.Fatalf("server kept talking after a framing error: %q", got)
			}
		})
	}
}

// TestServerDropsOversizeFrame: a hostile length prefix past MaxFrame
// drops the connection before any body byte is read; other connections
// are unaffected.
func TestServerDropsOversizeFrame(t *testing.T) {
	s := newServer(t)
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	attack := wire.AppendUvarint(opened(frameRequest), MaxFrame+1)
	if _, err := raw.Write(attack); err != nil {
		t.Fatal(err)
	}
	// The server closes our end; drain until EOF (past its magic).
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.Copy(io.Discard, raw); err != nil {
		t.Fatalf("connection not closed cleanly: %v", err)
	}
	// A well-behaved client still works.
	c := dial(t, s)
	var out float64
	if err := c.Call("add", addParams{A: 2, B: 3}, &out); err != nil || out != 5 {
		t.Fatalf("server wedged after oversize frame: %v %v", out, err)
	}
}

// TestMixedTrafficOnBinaryConnection: hand-built request and stream-open
// frames back to back on one raw connection — the server writes its
// magic first and answers both in frames.
func TestMixedTrafficOnBinaryConnection(t *testing.T) {
	s := newServer(t)
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	b, err := appendRequest(beginFrame(nil), 1, "add", "", json.RawMessage(`{"a":4,"b":5}`))
	if err != nil {
		t.Fatal(err)
	}
	msg := opened(finishFrame(b, frameRequest)...)
	b, err = appendStreamOpen(beginFrame(nil), 7, "subscribe.nope", "", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg = append(msg, finishFrame(b, frameStreamOpen)...)
	if _, err := raw.Write(msg); err != nil {
		t.Fatal(err)
	}

	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(raw)
	if err := readMagic(r); err != nil {
		t.Fatalf("server opening: %v", err)
	}
	// The response and the stream rejection come from separate goroutines,
	// in either order.
	seen := map[byte]bool{}
	for len(seen) < 2 {
		tag, body, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		seen[tag] = true
		switch tag {
		case frameResponse:
			res, ok := decodeResponse(*body)
			if !ok || res.isErr || res.id != 1 || res.payload.shape != ShapeJSON || string(res.payload.data) != "9" {
				t.Fatalf("res = %+v, ok=%v", res, ok)
			}
		case frameStreamClose:
			cl, ok := decodeStreamClose(*body)
			if !ok || cl.id != 7 || !cl.isErr || !strings.Contains(string(cl.errMsg), "unknown stream method") {
				t.Fatalf("close = %+v, ok=%v", cl, ok)
			}
		default:
			t.Fatalf("unexpected frame tag %#x", tag)
		}
	}
}

// TestBinaryAuth: token auth over binary frames, wrong and right.
func TestBinaryAuth(t *testing.T) {
	s := NewServer()
	s.SetToken("farm-secret")
	HandleFunc(s, "ping", func(struct{}) (any, error) { return "pong", nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("ping", nil, nil); err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("err = %v", err)
	}
	c.SetToken("farm-secret")
	var out string
	if err := c.Call("ping", nil, &out); err != nil || out != "pong" {
		t.Fatalf("authenticated binary call = %q, %v", out, err)
	}
}

// TestFinishFrameLengths: the backward length stamp must be exact for
// bodies around every uvarint width boundary the headroom covers.
func TestFinishFrameLengths(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		b := beginFrame(nil)
		for len(b)-frameHeadroom < n {
			b = append(b, 0xAB)
		}
		frame := finishFrame(b, frameRequest)
		tag, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || tag != frameRequest || len(*body) != n {
			t.Fatalf("n=%d: tag %#x, err %v", n, tag, err)
		}
	}
}
