package subscribe

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/wire"
)

// The shape-48 decoder is stateful per stream — the meta dictionary and
// the base-timestamp chain carry from one update to the next — so a
// fuzz input is a whole stream, not one payload: a sequence of
// uvarint-length-prefixed update payloads fed to one UpdateDecoder in
// order, the way a ClientStream hands them over.

// fuzzStream frames payloads as one fuzz input.
func fuzzStream(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = wire.AppendBytes(b, p)
	}
	return b
}

// fuzzUpdateSeeds builds the seed streams: a healthy three-update stream
// (new metas, dictionary hits, an empty keep-alive), its truncations,
// and the hostile shapes the decoder guards against. The same builder
// feeds f.Add and the checked-in corpus under testdata/fuzz.
func fuzzUpdateSeeds() [][]byte {
	base := time.Unix(1700000000, 0)
	var enc UpdateEncoder
	u1 := enc.Append(nil, &Update{SeqNo: 1, Readings: []probe.Reading{
		{Sensor: "rtd-1", Kind: "temperature", Unit: "celsius", Value: 21.53, Timestamp: base},
		{Sensor: "rtd-2", Kind: "temperature", Unit: "celsius", Value: -3.07, Timestamp: base.Add(5 * time.Millisecond)},
	}})
	u2 := enc.Append(nil, &Update{SeqNo: 2, Dropped: 3, Readings: []probe.Reading{
		{Sensor: "rtd-1", Kind: "temperature", Unit: "celsius", Value: 21.6, Timestamp: base.Add(time.Second)},
		{Sensor: "hygro", Kind: "humidity", Unit: "percent", Value: 40.25, Timestamp: base.Add(900 * time.Millisecond)},
	}})
	u3 := enc.Append(nil, &Update{SeqNo: 3, Dropped: 1})
	// The steady state: one known sensor, a few bytes.
	u4 := enc.Append(nil, &Update{SeqNo: 4, Readings: []probe.Reading{
		{Sensor: "rtd-2", Kind: "temperature", Unit: "celsius", Value: -3.08, Timestamp: base.Add(1020 * time.Millisecond)},
	}})
	seeds := [][]byte{
		fuzzStream(u1, u2, u3, u4),
		fuzzStream(u1),
		fuzzStream(u3),
		nil,
		// A dictionary reference with no dictionary: u2 opens the stream.
		fuzzStream(u2),
		// The base chain broken: u4's delta applied to a zero base.
		fuzzStream(u4),
		// Truncations inside the meta strings, the deltas and the value.
		fuzzStream(u1[:4]),
		fuzzStream(u1[:len(u1)/2]),
		fuzzStream(u1[:len(u1)-1]),
		fuzzStream(u1, u2[:len(u2)-1]),
		// Trailing junk after a complete update, and after a keep-alive.
		fuzzStream(append(append([]byte(nil), u1...), 0x00)),
		fuzzStream(append(append([]byte(nil), u3...), 0x00)),
		// A hostile count with nothing behind it.
		fuzzStream([]byte{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}),
		// The same sensor introduced twice (ref 0 both times).
		fuzzStream(u1, u1),
		// Extreme base delta and value: max-magnitude svarints.
		fuzzStream(extremeUpdate()),
		// An outer length that overruns the input.
		append(wire.AppendUvarint(nil, 1<<40), u1...),
	}
	return seeds
}

// extremeUpdate hand-encodes one reading at the svarint limits.
func extremeUpdate() []byte {
	b := []byte{0x01, 0x00, 0x01}
	b = wire.AppendSvarint(b, math.MinInt64) // base delta
	b = append(b, 0x00)
	b = wire.AppendString(b, "")
	b = wire.AppendString(b, "")
	b = wire.AppendString(b, "")
	b = wire.AppendSvarint(b, math.MaxInt64) // timestamp delta
	b = wire.AppendSvarint(b, math.MaxInt64) // quantized value
	return b
}

// FuzzUpdateDecode feeds an arbitrary byte stream to one UpdateDecoder,
// update by update, until the first error. Properties: it never panics;
// what it allocates is bounded by what it was given (an update's
// readings by its payload, the dictionary by the stream so far); and
// every update it accepts survives this package's own encoder — the
// accepted prefix of the stream, re-encoded by one UpdateEncoder and
// decoded by a second UpdateDecoder, reads the same: sequence numbers,
// drop counts, metas and millisecond timestamps exactly, values within
// wire.Quantum.
func FuzzUpdateDecode(f *testing.F) {
	for _, s := range fuzzUpdateSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec, dec2 UpdateDecoder
		var enc UpdateEncoder
		rest := data
		for len(rest) > 0 {
			payload, tail, ok := wire.ConsumeBytes(rest)
			if !ok {
				return
			}
			rest = tail
			u, err := dec.Decode(payload)
			if err != nil {
				return
			}
			if cap(u.Readings) > len(payload) {
				t.Fatalf("%d-byte update allocated room for %d readings", len(payload), cap(u.Readings))
			}
			if len(dec.metas) > len(data)-len(rest) {
				t.Fatalf("dictionary holds %d metas after %d stream bytes", len(dec.metas), len(data)-len(rest))
			}
			got, err := dec2.Decode(enc.Append(nil, &u))
			if err != nil {
				t.Fatalf("re-encoded update %d does not decode: %v", u.SeqNo, err)
			}
			if got.SeqNo != u.SeqNo || got.Dropped != u.Dropped || len(got.Readings) != len(u.Readings) {
				t.Fatalf("header: got %d/%d/%d readings, want %d/%d/%d", got.SeqNo, got.Dropped, len(got.Readings), u.SeqNo, u.Dropped, len(u.Readings))
			}
			for i, want := range u.Readings {
				g := got.Readings[i]
				if g.Sensor != want.Sensor || g.Kind != want.Kind || g.Unit != want.Unit {
					t.Fatalf("reading %d meta: got %q/%q/%q, want %q/%q/%q", i, g.Sensor, g.Kind, g.Unit, want.Sensor, want.Kind, want.Unit)
				}
				if g.Timestamp.UnixMilli() != want.Timestamp.UnixMilli() {
					t.Fatalf("reading %d time: got %d ms, want %d ms", i, g.Timestamp.UnixMilli(), want.Timestamp.UnixMilli())
				}
				// Past 2^53 quanta a float64 no longer holds the quantized
				// integer, so such a value is legitimately not re-encodable
				// to within a quantum.
				if math.Abs(want.Value) < (1<<53)*wire.Quantum && math.Abs(g.Value-want.Value) > wire.Quantum {
					t.Fatalf("reading %d value: got %v, want %v", i, g.Value, want.Value)
				}
			}
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz from fuzzUpdateSeeds, so the files and the in-code seeds
// cannot drift. Run it with
//
//	SUBSCRIBE_REGEN_CORPUS=1 go test ./internal/subscribe -run TestRegenerateFuzzCorpus
//
// after changing the update format; it is a no-op otherwise.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SUBSCRIBE_REGEN_CORPUS") == "" {
		t.Skip("set SUBSCRIBE_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUpdateDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzUpdateSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
