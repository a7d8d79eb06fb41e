package wire

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeCompact hammers the reading-batch decoder — the payload
// parser behind the srpc ShapeReadingBatch fast path — with arbitrary
// bytes: it must never panic, never allocate unboundedly from a hostile
// count, and anything it accepts must survive an encode/decode round
// trip with the same batch size.
func FuzzDecodeCompact(f *testing.F) {
	base := time.Unix(1700000000, 0)
	good, _ := EncodeCompact([]Reading{
		{SensorID: 1, Timestamp: base, Value: 21.5},
		{SensorID: 2, Timestamp: base.Add(250 * time.Millisecond), Value: -3.25},
		{SensorID: 1, Timestamp: base.Add(time.Second), Value: 21.75},
	})
	f.Add(good)
	f.Add(good[:len(good)-1])                                           // truncated last value
	f.Add(good[:5])                                                     // truncated header
	f.Add([]byte{})                                                     // empty
	f.Add([]byte{compactVersion})                                       // header only
	f.Add(append([]byte{compactVersion}, 0xff, 0xff, 0xff, 0xff, 0x0f)) // hostile count
	f.Add(append(append([]byte(nil), good...), 0x00))                   // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		readings, err := DecodeCompact(data)
		if err != nil {
			return
		}
		if uint64(len(readings)) > uint64(len(data)) {
			t.Fatalf("%d readings from %d input bytes", len(readings), len(data))
		}
		re, err := EncodeCompact(readings)
		if err != nil {
			// Extreme decoded values (duration overflow, quantization far
			// past float precision) are legitimately not re-encodable.
			return
		}
		again, err := DecodeCompact(re)
		if err != nil || len(again) != len(readings) {
			t.Fatalf("re-encoded batch failed to decode: %d readings, %v", len(again), err)
		}
	})
}

// FuzzConsumePrimitives drives the low-level binary consumers with
// arbitrary input: never panic, and every successful decode must
// re-encode to the bytes just consumed.
func FuzzConsumePrimitives(f *testing.F) {
	f.Add(AppendUvarint(nil, 300))
	f.Add(AppendSvarint(nil, -12345))
	f.Add(AppendBytes(nil, []byte("payload")))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if u, _, ok := ConsumeUvarint(data); ok {
			if got, rest, ok2 := ConsumeUvarint(AppendUvarint(nil, u)); !ok2 || got != u || len(rest) != 0 {
				t.Fatalf("uvarint %d did not round-trip", u)
			}
		}
		if v, _, ok := ConsumeSvarint(data); ok {
			if got, rest, ok2 := ConsumeSvarint(AppendSvarint(nil, v)); !ok2 || got != v || len(rest) != 0 {
				t.Fatalf("svarint %d did not round-trip", v)
			}
		}
		if b, rest, ok := ConsumeBytes(data); ok {
			if len(b)+len(rest) > len(data) {
				t.Fatalf("ConsumeBytes returned more than it was given")
			}
		}
		if _, _, ok := ConsumeUint64LE(data); ok && len(data) < 8 {
			t.Fatal("ConsumeUint64LE accepted a short buffer")
		}
		if s, _, ok := ConsumeString(data); ok && len(s) > len(data) {
			t.Fatal("ConsumeString returned more than it was given")
		}
	})
}

// FuzzConsumeValue drives the tagged-value decoder shared by srpc's hot
// shapes and the space journal: never panic, never claim more input than
// it was given, and every accepted value re-encodes and decodes to the
// same value.
func FuzzConsumeValue(f *testing.F) {
	for _, v := range []any{"avg", false, true, int64(-300), 2.5, []any{"a", 1.0}, map[string]any{"k": "v"}} {
		b, _ := AppendValue(nil, v)
		f.Add(b)
	}
	f.Add([]byte{valJSON, 3, '{', '"', '}'}) // JSON blob that does not parse
	f.Add([]byte{valFloat64, 0, 0})          // truncated float
	f.Add([]byte{0xff})                      // unknown tag
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, ok := ConsumeValue(data)
		if !ok {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("ConsumeValue returned more than it was given")
		}
		b, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		again, rest, ok := ConsumeValue(b)
		if !ok || len(rest) != 0 {
			t.Fatalf("re-encoded value %#v does not decode", v)
		}
		if f, isF := v.(float64); isF {
			if g, _ := again.(float64); math.Float64bits(f) != math.Float64bits(g) {
				t.Fatalf("float %v came back as %v", f, again)
			}
		} else if !reflect.DeepEqual(v, again) {
			t.Fatalf("value %#v came back as %#v", v, again)
		}
	})
}
