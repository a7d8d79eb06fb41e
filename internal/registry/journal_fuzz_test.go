package registry

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
)

// Decoding n bytes may allocate at most allocPerByte*n + allocSlack
// bytes: enough for every slot a payload's own bytes can pay for, far
// below what one unchecked count prefix would reserve.
const (
	allocPerByte = 128
	allocSlack   = 4 << 10
)

// FuzzRegistryJournalDecode drives arbitrary bytes through the journal
// record and snapshot decoders that Recover runs over what it reads from
// disk. Properties: never panic; decoding allocates in proportion to the
// bytes read, so a forged count cannot reserve memory the payload does
// not carry; an accepted record or snapshot re-encodes to bytes that
// decode and re-encode to the same bytes.
func FuzzRegistryJournalDecode(f *testing.F) {
	id := ids.ServiceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	attrs := attr.Set{
		attr.Name("Neem-Sensor"),
		{Type: "Location", Fields: map[string]attr.Value{"room": "lab", "floor": int64(2), "x": 1.5, "gain": 2.0, "nan": math.NaN()}},
	}
	recs := []regRecord{
		{Op: regOpRegister, ID: id, Types: []string{"SensorDataAccessor", "Servicer"}, Attrs: attrs, LeaseMS: 60000},
		{Op: regOpModAttrs, ID: id, Attrs: attrs},
		{Op: regOpDeregister, ID: id},
		{Op: regOpExpire, ID: id},
	}
	for i := range recs {
		b, err := appendRegRecord(nil, &recs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated
		f.Add(append(b, 0)) // trailing byte
	}
	f.Add(append([]byte{0x7f}, id[:]...)) // an op no version writes
	snap, err := appendRegSnapshot(nil, recs[:1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a snapshot claiming 2^32 items
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := allocPerByte*uint64(len(data)) + allocSlack
		var rec regRecord
		var err error
		if n := allocatedBy(func() { rec, err = decodeRegRecord(data) }); n > limit {
			t.Fatalf("decoding a %d-byte record allocated %d", len(data), n)
		}
		if err == nil {
			enc, err := appendRegRecord(nil, &rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
			}
			again, err := decodeRegRecord(enc)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if enc2, _ := appendRegRecord(nil, &again); !bytes.Equal(enc, enc2) {
				t.Fatalf("record re-encodes unstably:\n%x\n%x", enc, enc2)
			}
		}

		var items []regRecord
		if n := allocatedBy(func() { items, err = decodeRegSnapshot(data) }); n > limit {
			t.Fatalf("decoding a %d-byte snapshot allocated %d", len(data), n)
		}
		if err == nil {
			enc, err := appendRegSnapshot(nil, items)
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			again, err := decodeRegSnapshot(enc)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if enc2, _ := appendRegSnapshot(nil, again); !bytes.Equal(enc, enc2) {
				t.Fatalf("snapshot re-encodes unstably:\n%x\n%x", enc, enc2)
			}
		}
	})
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
