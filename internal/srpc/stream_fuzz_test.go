package srpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"sensorcer/internal/wire"
)

// fuzzStreamSeedFrames builds representative stream-frame inputs for the
// seed corpus: valid open/data/credit/close frames, truncations at every
// interesting boundary, hostile stream IDs and credit values, and junk
// around the frame tags. The same builders feed f.Add so the checked-in
// corpus under testdata/fuzz and the in-code seeds stay consistent.
func fuzzStreamSeedFrames() [][]byte {
	var seeds [][]byte
	frame := func(kind byte, body []byte) []byte {
		b := append(beginFrame(nil), body...)
		return append([]byte(nil), finishFrame(b, kind)...)
	}
	// A valid open with a dictionary-prefixed method and JSON params.
	ob, _ := appendStreamOpen(nil, 1, "subscribe.stream", "tok", 32, json.RawMessage(`{"token":"t"}`))
	open := frame(frameStreamOpen, ob)
	seeds = append(seeds, open)
	// An open with an undictionaried method and no params.
	ob2, _ := appendStreamOpen(nil, 7, "custom.feed", "", 4, nil)
	seeds = append(seeds, frame(frameStreamOpen, ob2))
	// Data frames: JSON payload and an opaque binary shape.
	db := wire.AppendUvarint(nil, 1)
	db = append(db, ShapeJSON)
	db = append(db, []byte(`{"seq":9}`)...)
	seeds = append(seeds, frame(frameStreamData, db))
	db2 := wire.AppendUvarint(nil, 1)
	db2 = append(db2, 48) // subscribe.ShapeUpdate
	db2 = append(db2, 0x01, 0x00, 0x01, 0xFF)
	seeds = append(seeds, frame(frameStreamData, db2))
	// Credit, orderly close, and error close.
	seeds = append(seeds, frame(frameStreamCredit, appendStreamCredit(nil, 1, 16)))
	seeds = append(seeds, frame(frameStreamClose, appendStreamClose(nil, 1, "")))
	seeds = append(seeds, frame(frameStreamClose, appendStreamClose(nil, 1, "subscriber rejected")))
	// Truncations of the valid open at every interesting boundary.
	for _, n := range []int{1, 2, 3, len(open) / 2, len(open) - 1} {
		if n < len(open) {
			seeds = append(seeds, append([]byte(nil), open[:n]...))
		}
	}
	// Hostile bodies: empty, credit with trailing junk, overlong uvarint
	// stream ID, max stream ID, and an open with an out-of-range method
	// prefix index.
	seeds = append(seeds, frame(frameStreamData, nil))
	seeds = append(seeds, frame(frameStreamCredit, append(appendStreamCredit(nil, 1, 2), 0xAA)))
	seeds = append(seeds, frame(frameStreamClose, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x00}))
	seeds = append(seeds, frame(frameStreamCredit, appendStreamCredit(nil, ^uint64(0), ^uint64(0))))
	hostileOpen := wire.AppendUvarint(nil, 3)
	hostileOpen = append(hostileOpen, 0xFF)
	hostileOpen = wire.AppendString(hostileOpen, "x")
	hostileOpen = wire.AppendString(hostileOpen, "")
	hostileOpen = wire.AppendUvarint(hostileOpen, 8)
	hostileOpen = append(hostileOpen, ShapeJSON)
	seeds = append(seeds, frame(frameStreamOpen, hostileOpen))
	// Interleaved traffic: open, data, credit, close back to back.
	var mixed []byte
	mixed = append(mixed, open...)
	mixed = append(mixed, frame(frameStreamData, db)...)
	mixed = append(mixed, frame(frameStreamCredit, appendStreamCredit(nil, 1, 1))...)
	mixed = append(mixed, frame(frameStreamClose, appendStreamClose(nil, 1, ""))...)
	seeds = append(seeds, mixed)
	return seeds
}

// FuzzDecodeStreamFrame drives raw bytes through the stream-frame read
// path a connection runs past its opening: readFrame, then decode by
// kind until the first error. Properties: never panic, never hold a
// buffer larger than the bytes actually received (plus one read chunk)
// or the largest the pool retains, and every successfully decoded credit
// frame re-encodes to a frame that decodes to the same values.
func FuzzDecodeStreamFrame(f *testing.F) {
	for _, s := range fuzzStreamSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		for {
			kind, buf, err := readFrame(r)
			if err != nil {
				return
			}
			body := *buf
			if cap(body) > len(data)+(64<<10) && cap(body) > maxPooledBuf {
				t.Fatalf("claimed length allocated %d bytes for %d input bytes", cap(body), len(data))
			}
			switch kind {
			case frameStreamOpen:
				op, sc, ok := decodeStreamOpen(body, scratch)
				scratch = sc
				if ok && len(op.method) > len(body)+len(methodPrefixes[len(methodPrefixes)-1])+32 {
					t.Fatalf("method longer than any encodable name: %d", len(op.method))
				}
			case frameStreamData:
				_, _ = decodeStreamData(body)
			case frameStreamCredit:
				id, n, ok := decodeStreamCredit(body)
				if ok {
					re := appendStreamCredit(nil, id, n)
					id2, n2, ok2 := decodeStreamCredit(re)
					if !ok2 || id2 != id || n2 != n {
						t.Fatalf("credit (%d,%d) re-decode = (%d,%d,%v)", id, n, id2, n2, ok2)
					}
				}
			case frameStreamClose:
				cl, ok := decodeStreamClose(body)
				if ok && len(cl.errMsg) > len(body) {
					t.Fatalf("close message longer than the body: %d > %d", len(cl.errMsg), len(body))
				}
			}
			putBuf(buf)
		}
	})
}
