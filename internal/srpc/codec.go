// The frame protocol: the one wire format srpc speaks.
//
// Opening. Each end writes a 5-byte magic — 0xBF 's' 'b' '1' '\n' —
// immediately after the TCP connect (server at accept, client at Dial),
// and each read loop checks it once: a peer whose first five bytes are
// anything else (a legacy JSON line, an HTTP probe, a wrong port) is
// dropped before another byte is read. Nobody waits for the peer's magic
// before sending; TCP order already puts ours ahead of our first frame.
//
// Framing. Every frame is
//
//	tag (1B: 0xB1 request, 0xB2 response, 0xB3–0xB6 streams, see
//	stream.go) | uvarint body length | body
//
// with bodies
//
//	request:  uvarint id | 1B method-prefix index (0 = none) |
//	          uvarint suffix len + suffix | uvarint auth len + auth |
//	          1B payload shape | payload (rest of body)
//	response: uvarint id | 1B status (0 ok, 1 error) |
//	          error: message (rest) — ok: 1B payload shape | payload (rest)
//
// A tag outside 0xB1–0xB6, a frame kind the receiving end never
// accepts, a body length past MaxFrame and an overlong length encoding
// are all framing errors: the connection is dropped. Payload shape 0 is
// the reflection-based generic fallback: the payload bytes are JSON.
// Non-zero shapes are the hand-written fast paths (hot-shape encoders in
// internal/remote, internal/wire and internal/subscribe) that never
// touch encoding/json.
//
// Memory. Frames are encoded into and decoded from pooled []byte buffers
// (oversize ones are discarded rather than pinned by the pool), and the
// decoders alias the frame buffer instead of copying: a request payload
// handed to a handler and a response payload handed to a caller are
// windows into the pooled frame, valid only until the handler/call
// returns. Hostile length prefixes allocate bounded memory: the body is
// read in chunks, so allocation tracks bytes actually received, never the
// claimed length.
package srpc

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"sensorcer/internal/wire"
)

// Frame tags. The stream kinds are laid out in stream.go.
const (
	frameRequest      byte = 0xB1
	frameResponse     byte = 0xB2
	frameStreamOpen   byte = 0xB3
	frameStreamData   byte = 0xB4
	frameStreamCredit byte = 0xB5
	frameStreamClose  byte = 0xB6
)

// magic is what each end of a connection writes first and expects first.
var magic = [5]byte{0xBF, 's', 'b', '1', '\n'}

// readMagic consumes the peer's opening bytes, which must be the magic.
func readMagic(r *bufio.Reader) error {
	var got [len(magic)]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if got != magic {
		return fmt.Errorf("srpc: peer opened with %q, not the srpc magic", got[:])
	}
	return nil
}

// MaxFrame bounds a frame body (64 MiB) — snapshots ship well
// under it, and a hostile length prefix past it drops the connection
// before a single byte of body is read.
const MaxFrame = 64 << 20

// ShapeJSON is the payload shape of the generic fallback: the payload is
// JSON.
const ShapeJSON byte = 0

// BinaryMarshaler is the fast-path encode side of a hot message shape.
// Implemented on value types passed as srpc params or returned as srpc
// results; everything else falls back to a JSON payload, shape 0.
type BinaryMarshaler interface {
	// SrpcShape tags the payload (never ShapeJSON).
	SrpcShape() byte
	// AppendSrpc appends the binary payload to buf.
	AppendSrpc(buf []byte) ([]byte, error)
}

// BinaryUnmarshaler is the decode side, implemented on *T. data aliases
// the frame buffer: anything retained must be copied.
type BinaryUnmarshaler interface {
	UnmarshalSrpc(shape byte, data []byte) error
}

// errFrameTooBig drops connections advertising implausible frames.
var errFrameTooBig = errors.New("srpc: frame exceeds MaxFrame")

// maxPooledBuf is the oversize-discard cap: one giant ShipBatch must not
// pin a quarter-megabyte buffer in the pool forever.
const maxPooledBuf = 256 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// frameHeadroom reserves room at the front of an encode buffer for the
// frame tag plus a worst-case uvarint body length, so a frame is built in
// place and stamped backwards — no shifting, no second buffer.
const frameHeadroom = 11

var headZeros [frameHeadroom]byte

// beginFrame resets buf and reserves the headroom.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], headZeros[:]...)
}

// finishFrame stamps tag and body length immediately before the body and
// returns the whole wire frame (an alias into buf).
func finishFrame(buf []byte, tag byte) []byte {
	body := uint64(len(buf) - frameHeadroom)
	var tmp [frameHeadroom - 1]byte
	n := 0
	for v := body; ; n++ {
		if v < 0x80 {
			tmp[n] = byte(v)
			n++
			break
		}
		tmp[n] = byte(v) | 0x80
		v >>= 7
	}
	start := frameHeadroom - 1 - n
	buf[start] = tag
	copy(buf[start+1:frameHeadroom], tmp[:n])
	return buf[start:]
}

// readFrame reads one frame — tag, length, body — into a pooled buffer
// the caller owns (putBuf when done). The buffer is taken only once the
// tag has arrived, so an idle connection holds none. An unknown tag is a
// framing error, reported before any of the length is read.
func readFrame(r *bufio.Reader) (tag byte, buf *[]byte, err error) {
	if tag, err = r.ReadByte(); err != nil {
		return 0, nil, err
	}
	if tag < frameRequest || tag > frameStreamClose {
		return 0, nil, fmt.Errorf("srpc: unknown frame tag %#x", tag)
	}
	buf = getBuf()
	if err := readFrameBody(r, buf); err != nil {
		putBuf(buf)
		return 0, nil, err
	}
	return tag, buf, nil
}

// readFrameBody reads one uvarint-prefixed frame body into *buf after the
// caller consumed the tag byte. Allocation is bounded by bytes actually
// received: the body is read in 64 KiB chunks, so a hostile length prefix
// costs at most one chunk beyond what the peer really sent.
func readFrameBody(r *bufio.Reader, buf *[]byte) error {
	n64, err := readUvarint(r)
	if err != nil {
		return err
	}
	if n64 > MaxFrame {
		return errFrameTooBig
	}
	n := int(n64)
	const chunk = 64 << 10
	b := (*buf)[:0]
	for len(b) < n {
		want := n - len(b)
		if want > chunk {
			want = chunk
		}
		if cap(b)-len(b) < want {
			grown := make([]byte, len(b), growCap(len(b)+want, n))
			copy(grown, b)
			b = grown
		}
		seg := b[len(b) : len(b)+want]
		if _, err := io.ReadFull(r, seg); err != nil {
			*buf = b[:0]
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		b = b[:len(b)+want]
	}
	*buf = b
	return nil
}

// growCap doubles toward the known final size without overshooting it.
func growCap(need, final int) int {
	c := need * 2
	if c > final {
		c = final
	}
	if c < need {
		c = need
	}
	return c
}

// readUvarint is binary.ReadUvarint over the bufio.Reader, rejecting
// overlong encodings.
func readUvarint(r *bufio.Reader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		c, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if i >= 10 || (i == 9 && c > 1) {
			return 0, errors.New("srpc: uvarint overflows 64 bits")
		}
		if c < 0x80 {
			return v | uint64(c)<<shift, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
}

// methodPrefixes is the static method-name dictionary: every hot method
// family's common prefix encodes as one byte, leaving only the short
// dynamic suffix (shard name, service id) on the wire. Index 0 means "no
// prefix"; the table is part of the wire format — append only.
var methodPrefixes = [...]string{
	1:  "repl.ship.",
	2:  "repl.snapshot.",
	3:  "repl.heartbeat.",
	4:  "registrar.lookup",
	5:  "registrar.",
	6:  "coord.",
	7:  "accessor.getValue.",
	8:  "accessor.getReadings.",
	9:  "accessor.describe.",
	10: "servicer.service.",
	11: "subscribe.",
}

// splitMethod finds the longest dictionary prefix of method.
func splitMethod(method string) (idx byte, suffix string) {
	best := 0
	for i := 1; i < len(methodPrefixes); i++ {
		p := methodPrefixes[i]
		if len(p) > len(methodPrefixes[best]) && len(method) >= len(p) && method[:len(p)] == p {
			best = i
		}
	}
	return byte(best), method[len(methodPrefixes[best]):]
}

// appendMethod appends the full method name for prefix index idx and
// suffix bytes to dst (the per-connection scratch buffer).
func appendMethod(dst []byte, idx byte, suffix []byte) ([]byte, bool) {
	if int(idx) >= len(methodPrefixes) {
		return dst, false
	}
	dst = append(dst, methodPrefixes[idx]...)
	return append(dst, suffix...), true
}

// binPayload is a decoded payload: shape tag plus bytes aliasing the
// frame buffer.
type binPayload struct {
	shape byte
	data  []byte
}

// appendPayload appends v as shape byte + payload: the fast path when v
// implements BinaryMarshaler, JSON as shape 0 otherwise (nil is an empty
// shape-0 payload).
func appendPayload(buf []byte, v any) ([]byte, error) {
	if bm, ok := v.(BinaryMarshaler); ok {
		return bm.AppendSrpc(append(buf, bm.SrpcShape()))
	}
	buf = append(buf, ShapeJSON)
	if v == nil {
		return buf, nil
	}
	js, err := json.Marshal(v)
	if err != nil {
		return buf, err
	}
	return append(buf, js...), nil
}

// decodePayload materializes p into out, a non-nil pointer: through its
// BinaryUnmarshaler for a fast-path shape, json.Unmarshal for shape 0
// (an empty shape-0 payload leaves out untouched).
func decodePayload(p binPayload, out any) error {
	if p.shape != ShapeJSON {
		u, ok := out.(BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("payload has shape %#x but %T has no binary decoder", p.shape, out)
		}
		return u.UnmarshalSrpc(p.shape, p.data)
	}
	if len(p.data) == 0 {
		return nil
	}
	return json.Unmarshal(p.data, out)
}

// binRequest is a decoded request frame. method aliases the scratch
// buffer passed to decodeRequest; auth and payload alias the frame body.
type binRequest struct {
	id      uint64
	method  []byte
	auth    []byte
	payload binPayload
}

// appendRequest encodes a request body after beginFrame; finishFrame with
// frameRequest completes it.
func appendRequest(buf []byte, id uint64, method, auth string, params any) ([]byte, error) {
	buf = wire.AppendUvarint(buf, id)
	idx, suffix := splitMethod(method)
	buf = append(buf, idx)
	buf = wire.AppendString(buf, suffix)
	buf = wire.AppendString(buf, auth)
	return appendPayload(buf, params)
}

// decodeRequest parses a request body. scratch backs the reassembled
// method name and is returned (possibly regrown) for reuse.
func decodeRequest(body, scratch []byte) (req binRequest, scratchOut []byte, ok bool) {
	scratchOut = scratch
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok || len(rest) < 1 {
		return binRequest{}, scratchOut, false
	}
	idx := rest[0]
	suffix, rest, ok := wire.ConsumeBytes(rest[1:])
	if !ok {
		return binRequest{}, scratchOut, false
	}
	method, ok := appendMethod(scratch[:0], idx, suffix)
	scratchOut = method
	if !ok {
		return binRequest{}, scratchOut, false
	}
	auth, rest, ok := wire.ConsumeBytes(rest)
	if !ok || len(rest) < 1 {
		return binRequest{}, scratchOut, false
	}
	return binRequest{
		id:      id,
		method:  method,
		auth:    auth,
		payload: binPayload{shape: rest[0], data: rest[1:]},
	}, scratchOut, true
}

// binResponse is a decoded response frame; errMsg and payload alias the
// frame body.
type binResponse struct {
	id      uint64
	errMsg  []byte
	isErr   bool
	payload binPayload
}

// appendResponse encodes a response body after beginFrame. On errMsg !=
// "" the result is ignored.
func appendResponse(buf []byte, id uint64, errMsg string, result any) ([]byte, error) {
	buf = wire.AppendUvarint(buf, id)
	if errMsg != "" {
		buf = append(buf, 1)
		return append(buf, errMsg...), nil
	}
	return appendPayload(append(buf, 0), result)
}

// decodeResponse parses a response body.
func decodeResponse(body []byte) (binResponse, bool) {
	id, rest, ok := wire.ConsumeUvarint(body)
	if !ok || len(rest) < 1 {
		return binResponse{}, false
	}
	if rest[0] == 1 {
		return binResponse{id: id, isErr: true, errMsg: rest[1:]}, true
	}
	if len(rest) < 2 {
		return binResponse{}, false
	}
	return binResponse{id: id, payload: binPayload{shape: rest[1], data: rest[2:]}}, true
}
