package subscribe

import (
	"bytes"
	"testing"
	"time"

	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/wire"
)

func TestUpdateCodecRoundTrip(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var enc UpdateEncoder
	var dec UpdateDecoder
	updates := []Update{
		{SeqNo: 1, Dropped: 0, Readings: []probe.Reading{
			{Sensor: "rtd-1", Kind: "temperature", Unit: "celsius", Value: 21.53, Timestamp: base},
			{Sensor: "rtd-2", Kind: "temperature", Unit: "celsius", Value: -3.07, Timestamp: base.Add(5 * time.Millisecond)},
		}},
		// Second update: same sensors ride the dictionary, one new.
		{SeqNo: 2, Dropped: 3, Readings: []probe.Reading{
			{Sensor: "rtd-1", Kind: "temperature", Unit: "celsius", Value: 21.6, Timestamp: base.Add(time.Second)},
			{Sensor: "hygro", Kind: "humidity", Unit: "percent", Value: 40.25, Timestamp: base.Add(1100 * time.Millisecond)},
		}},
		// Empty keep-alive update.
		{SeqNo: 3, Dropped: 1},
	}
	for i, u := range updates {
		b := enc.Append(nil, &u)
		got, err := dec.Decode(b)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if got.SeqNo != u.SeqNo || got.Dropped != u.Dropped || len(got.Readings) != len(u.Readings) {
			t.Fatalf("update %d header: got %+v want %+v", i, got, u)
		}
		for j, r := range u.Readings {
			g := got.Readings[j]
			if g.Sensor != r.Sensor || g.Kind != r.Kind || g.Unit != r.Unit {
				t.Fatalf("update %d reading %d meta: got %+v want %+v", i, j, g, r)
			}
			if d := g.Value - r.Value; d > wire.Quantum/2 || d < -wire.Quantum/2 {
				t.Fatalf("update %d reading %d value: got %v want %v", i, j, g.Value, r.Value)
			}
			if g.Timestamp.UnixMilli() != r.Timestamp.UnixMilli() {
				t.Fatalf("update %d reading %d time: got %v want %v", i, j, g.Timestamp, r.Timestamp)
			}
		}
	}
}

// TestUpdateCodecDictionaryAmortizes: after the first update, repeats of
// the same sensor cost a few bytes, not its meta strings.
func TestUpdateCodecDictionaryAmortizes(t *testing.T) {
	base := time.Unix(1700000000, 0)
	var enc UpdateEncoder
	u := Update{SeqNo: 1, Readings: []probe.Reading{
		{Sensor: "a-rather-long-sensor-name", Kind: "temperature", Unit: "celsius", Value: 20, Timestamp: base},
	}}
	first := len(enc.Append(nil, &u))
	u.SeqNo = 2
	second := len(enc.Append(nil, &u))
	if second >= first {
		t.Fatalf("dictionary did not amortize: first %dB, second %dB", first, second)
	}
	if second > 16 {
		t.Fatalf("steady-state reading costs %dB, want a handful", second)
	}
}

func TestUpdateCodecHostileInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0x01, 0x00},
		{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}, // absurd count
		{0x01, 0x00, 0x01, 1, 2, 3, 4, 5, 6, 7, 8}, // count 1, base, then truncated
		// ref pointing past the (empty) dictionary
		append([]byte{0x01, 0x00, 0x01, 1, 2, 3, 4, 5, 6, 7, 8}, 0x05, 0x00, 0x00),
	}
	for i, b := range cases {
		var dec UpdateDecoder
		if _, err := dec.Decode(b); err == nil {
			t.Fatalf("case %d: hostile input decoded", i)
		}
	}
}

// TestUpdateEncoderMetaCacheIsInvisible: the encoder's per-sensor meta
// cache changes no byte. Streams encoded with the hub's sensor indexes —
// a sensor changing kind and unit and changing back, 120 sensors — equal
// the same streams encoded without them, which take the dictionary map
// alone, and decode to the metas that were sent.
func TestUpdateEncoderMetaCacheIsInvisible(t *testing.T) {
	base := time.Unix(1700000000, 0)
	for name, updates := range map[string][]Update{
		"meta change": metaChangeUpdates(base),
		"120 sensors": wideUpdates(base),
	} {
		var cached, plain UpdateEncoder
		var dec UpdateDecoder
		for i := range updates {
			u := updates[i]
			if len(u.ids) != len(u.Readings) {
				t.Fatalf("%s: update %d carries %d ids for %d readings", name, i, len(u.ids), len(u.Readings))
			}
			got := cached.Append(nil, &u)
			u.ids = nil
			if want := plain.Append(nil, &u); !bytes.Equal(got, want) {
				t.Fatalf("%s: update %d encodes to %x with sensor indexes, %x without", name, i, got, want)
			}
			back, err := dec.Decode(got)
			if err != nil {
				t.Fatalf("%s: update %d: %v", name, i, err)
			}
			for j, r := range u.Readings {
				if g := back.Readings[j]; g.Sensor != r.Sensor || g.Kind != r.Kind || g.Unit != r.Unit {
					t.Fatalf("%s: update %d reading %d meta: got %q/%q/%q, want %q/%q/%q", name, i, j, g.Sensor, g.Kind, g.Unit, r.Sensor, r.Kind, r.Unit)
				}
			}
		}
	}
}
