package remote

import (
	"bytes"
	"testing"
)

// FuzzShipBatchDecode drives arbitrary bytes through the ship-batch
// decoder a backup runs on every shipped group commit. Properties: never
// panic; whatever it accepts holds no more payload slots than bytes
// received, its payloads are views of the input (nothing is copied), and
// it re-encodes to a batch that decodes equal.
func FuzzShipBatchDecode(f *testing.F) {
	valid, _ := wireShipBatch{Epoch: 3, FirstSeq: 41, Payloads: [][]byte{{2, 7, 0}, {}, []byte("record")}}.AppendSrpc(nil)
	f.Add(valid)
	f.Add([]byte{1, 1, 0})                            // an empty batch: a position probe
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // claims 2^32 payloads
	f.Add([]byte{1, 1, 1, 5, 'a'})                    // payload longer than the frame
	f.Add(append(append([]byte{}, valid...), 0))      // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var w wireShipBatch
		if w.UnmarshalSrpc(shapeShipBatch, data) != nil {
			return
		}
		if cap(w.Payloads) > len(data) {
			t.Fatalf("%d payload slots for %d input bytes", cap(w.Payloads), len(data))
		}
		orig := append([]byte(nil), data...)
		for i, p := range w.Payloads {
			if len(p) == 0 {
				continue
			}
			p[0] ^= 0xff
			aliased := !bytes.Equal(data, orig)
			p[0] ^= 0xff
			if !aliased {
				t.Fatalf("payload %d was copied out of the frame", i)
			}
		}
		enc, err := w.AppendSrpc(nil)
		if err != nil {
			t.Fatal(err)
		}
		var again wireShipBatch
		if err := again.UnmarshalSrpc(shapeShipBatch, enc); err != nil ||
			again.Epoch != w.Epoch || again.FirstSeq != w.FirstSeq || len(again.Payloads) != len(w.Payloads) {
			t.Fatalf("accepted batch did not round-trip: %+v -> %+v, %v", w, again, err)
		}
		for i := range w.Payloads {
			if !bytes.Equal(again.Payloads[i], w.Payloads[i]) {
				t.Fatalf("payload %d did not round-trip", i)
			}
		}
	})
}
