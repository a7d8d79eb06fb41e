package srpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"sensorcer/internal/wire"
)

// opened returns what a peer writes on connect: the magic, then rest.
func opened(rest ...byte) []byte { return append(magic[:len(magic):len(magic)], rest...) }

// fuzzSeedFrames builds representative connection openings for the seed
// corpus: the magic followed by valid frames both ways, truncations,
// hostile length prefixes, and bad magics. The same builders feed f.Add
// so the checked-in corpus under testdata/fuzz and the in-code seeds
// stay consistent.
func fuzzSeedFrames() [][]byte {
	var seeds [][]byte
	// A valid request frame (shape-0 payload).
	b, _ := appendRequest(beginFrame(nil), 1, "repl.ship.s0", "tok", json.RawMessage(`{"n":1}`))
	req := append([]byte(nil), finishFrame(b, frameRequest)...)
	seeds = append(seeds, opened(req...))
	// A valid success response and a valid error response.
	b, _ = appendResponse(beginFrame(nil), 2, "", "ok")
	seeds = append(seeds, opened(finishFrame(b, frameResponse)...))
	b, _ = appendResponse(beginFrame(nil), 3, "boom", nil)
	seeds = append(seeds, opened(finishFrame(b, frameResponse)...))
	// Truncations of the valid request at every interesting boundary.
	for _, n := range []int{1, 2, 3, len(req) / 2, len(req) - 1} {
		seeds = append(seeds, opened(req[:n]...))
	}
	// Hostile length prefixes: over MaxFrame, and huge-but-legal with no body.
	seeds = append(seeds, wire.AppendUvarint(opened(frameRequest), MaxFrame+1))
	seeds = append(seeds, wire.AppendUvarint(opened(frameResponse), MaxFrame-1))
	// Overlong uvarint length encoding.
	seeds = append(seeds, opened(frameRequest, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02))
	// Bad magics: none beyond the opening itself, a corrupted one ahead of
	// a valid frame, a truncated one, and a legacy JSON line.
	seeds = append(seeds, opened())
	seeds = append(seeds, append([]byte{0xBF, 'x', 'b', '1', '\n'}, req...))
	seeds = append(seeds, opened()[:3])
	seeds = append(seeds, []byte(`{"id":1,"method":"add","params":{}}`+"\n"))
	// An unknown tag mid-connection: the magic again, after a valid frame.
	seeds = append(seeds, append(opened(req...), magic[:]...))
	return seeds
}

// FuzzDecodeFrame drives raw bytes through the exact read path a server
// or client connection runs: check the magic once, then readFrame and
// decode each body until the first error. Properties: never panic, and
// never hold a buffer larger than the bytes actually received (plus one
// read chunk) or the largest the pool retains, regardless of the claimed
// frame length.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		if readMagic(r) != nil {
			return
		}
		var scratch []byte
		for {
			tag, buf, err := readFrame(r)
			if err != nil {
				return
			}
			body := *buf
			if cap(body) > len(data)+(64<<10) && cap(body) > maxPooledBuf {
				t.Fatalf("claimed length allocated %d bytes for %d input bytes", cap(body), len(data))
			}
			switch tag {
			case frameRequest:
				req, sc, ok := decodeRequest(body, scratch)
				scratch = sc
				if ok && len(req.method) > len(body)+len(methodPrefixes[len(methodPrefixes)-1])+32 {
					t.Fatalf("method longer than any encodable name: %d", len(req.method))
				}
			case frameResponse:
				_, _ = decodeResponse(body)
			}
			putBuf(buf)
		}
	})
}

// FuzzReadUvarint pins the overlong-encoding and overflow rejection of
// the frame-length reader.
func FuzzReadUvarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x7f})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := readUvarint(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and re-decode to itself.
		enc := wire.AppendUvarint(nil, v)
		got, err := readUvarint(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil || got != v {
			t.Fatalf("uvarint %d re-decode = %d, %v", v, got, err)
		}
		// And the wire package's consumer must agree byte for byte.
		wv, rest, ok := wire.ConsumeUvarint(data)
		if !ok || wv != v {
			t.Fatalf("ConsumeUvarint = %d, %v; readUvarint = %d", wv, ok, v)
		}
		_ = rest
	})
}
