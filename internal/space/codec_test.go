package space

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorcer/internal/clockwork"
	"sensorcer/internal/lease"
)

// testPayload is a rich field value the tagged-value format cannot carry,
// journaled through testCodec.
type testPayload struct{ B []byte }

type testCodec struct{}

func init() { RegisterPayloadCodec(testCodec{}) }

func (testCodec) Name() string { return "space.test" }

func (testCodec) Append(b []byte, v any) ([]byte, bool) {
	p, ok := v.(*testPayload)
	if !ok {
		return b, false
	}
	return append(b, p.B...), true
}

func (testCodec) Decode(data []byte) (any, error) {
	return &testPayload{B: append([]byte{}, data...)}, nil
}

// TestRecoverRefusesJSONJournal: a log written by the earlier JSON
// journal fails recovery by name, not as a generic decode error.
func TestRecoverRefusesJSONJournal(t *testing.T) {
	legacy := []byte(`{"op":"write","id":1,"kind":"ExertionEnvelope","fields":{"n":{"d":1}},"leaseMs":60000}`)
	for name, j := range map[string]*memJournal{
		"record":   {batches: [][][]byte{{legacy}}},
		"snapshot": {snap: []byte(`{"nextId":1,"entries":[]}`)},
	} {
		_, err := Recover(clockwork.NewFake(epoch), lease.Policy{Max: time.Hour}, j)
		if !errors.Is(err, errJSONJournal) || !strings.Contains(err.Error(), "old JSON journal format") {
			t.Fatalf("%s: Recover = %v, want the old-JSON-format error", name, err)
		}
	}
}

// TestCheckpointRoundTripsFieldKinds: every field kind the format keeps
// survives a snapshot, and a codec payload longer than a one-byte length
// survives too.
func TestCheckpointRoundTripsFieldKinds(t *testing.T) {
	_, s, j := journaledSpace(t)
	big := &testPayload{B: bytes.Repeat([]byte("x"), 300)}
	s.Write(NewEntry("K", "s", "str", "i", int64(-7), "f", 2.5, "b", true, "p", big, "l", []any{"a", 1.0}), nil, time.Minute)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(clockwork.NewFake(epoch), lease.Policy{Max: time.Hour}, j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Read(NewEntry("K"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"s": "str", "i": int64(-7), "f": 2.5, "b": true, "p": big, "l": []any{"a", 1.0}}
	if !reflect.DeepEqual(got.Fields, want) {
		t.Fatalf("recovered fields %v, want %v", got.Fields, want)
	}
}

// sameRecord compares decoded records, treating float fields bitwise so a
// NaN equals itself.
func sameRecord(a, b record) bool {
	if a.op != b.op || a.id != b.id || a.txn != b.txn || a.taken != b.taken ||
		a.leaseMS != b.leaseMS || a.entry.Kind != b.entry.Kind || len(a.entry.Fields) != len(b.entry.Fields) {
		return false
	}
	for k, av := range a.entry.Fields {
		bv, ok := b.entry.Fields[k]
		af, aIsF := av.(float64)
		bf, bIsF := bv.(float64)
		switch {
		case !ok:
			return false
		case aIsF && bIsF:
			if math.Float64bits(af) != math.Float64bits(bf) {
				return false
			}
		case !reflect.DeepEqual(av, bv):
			return false
		}
	}
	return true
}

// FuzzJournalRecordDecode: the record and snapshot decoders never panic
// on arbitrary bytes, whatever they accept re-encodes to an equal record,
// and records and snapshots generated from the inputs round-trip.
func FuzzJournalRecordDecode(f *testing.F) {
	f.Add([]byte{opTake, 5, 0}, uint64(1), uint64(0), "ExertionEnvelope", "n", "avg", int64(3), 1.5)
	f.Add([]byte(`{"op":"take","id":5}`), uint64(0), uint64(7), "", "", "", int64(-1), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, id, txnID uint64, kind, key, str string, n int64, x float64) {
		if r, err := decodeRecord(data); err == nil {
			again, err := decodeRecord(appendRecord(nil, &r))
			if err != nil || !sameRecord(r, again) {
				t.Fatalf("accepted record did not round-trip: %+v -> %+v, %v", r, again, err)
			}
		}
		if next, entries, err := decodeSnapshot(data); err == nil {
			recs := make([]record, len(entries))
			for i, e := range entries {
				recs[i] = *e
			}
			next2, again, err := decodeSnapshot(appendSnapshot(nil, next, recs))
			if err != nil || next2 != next || len(again) != len(entries) {
				t.Fatalf("accepted snapshot did not round-trip: %v", err)
			}
		}

		w := record{op: opWrite, id: id, txn: txnID, leaseMS: n, entry: NewEntry(kind,
			key, str, key+"n", n, key+"x", x, key+"b", n%2 == 0, key+"p", &testPayload{B: data})}
		got, err := decodeRecord(appendRecord(nil, &w))
		if err != nil || !sameRecord(w, got) {
			t.Fatalf("write record did not round-trip: %+v -> %+v, %v", w, got, err)
		}
		w.taken = txnID + 1
		next, entries, err := decodeSnapshot(appendSnapshot(nil, id, []record{w}))
		if err != nil || next != id || len(entries) != 1 || !sameRecord(w, *entries[0]) {
			t.Fatalf("snapshot did not round-trip: %v", err)
		}
		for _, op := range []byte{opTake, opExpire, opCommit, opAbort} {
			r := record{op: op, id: id, txn: txnID}
			if got, err := decodeRecord(appendRecord(nil, &r)); err != nil || !sameRecord(r, got) {
				t.Fatalf("op %d record did not round-trip: %+v, %v", op, got, err)
			}
		}
	})
}
