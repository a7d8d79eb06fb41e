package remote

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sensorcer/internal/sorcer"
	"sensorcer/internal/srpc"
)

// remoteShapes are the replication (2–4), accessor (7–10) and exertion
// (11, 12) payloads a peer hands this package to decode. Each entry
// makes a fresh decode target.
var remoteShapes = map[byte]func() srpc.BinaryUnmarshaler{
	shapeShipResult:   func() srpc.BinaryUnmarshaler { return new(wireShipResult) },
	shapeShipSnapshot: func() srpc.BinaryUnmarshaler { return new(wireShipSnapshot) },
	shapeHeartbeat:    func() srpc.BinaryUnmarshaler { return new(wireHeartbeat) },
	shapeReading:      func() srpc.BinaryUnmarshaler { return new(wireReading) },
	shapeReadings:     func() srpc.BinaryUnmarshaler { return new(wireReadings) },
	shapeReadingsReq:  func() srpc.BinaryUnmarshaler { return new(readingsParams) },
	shapeServiceReq:   func() srpc.BinaryUnmarshaler { return new(serviceParams) },
	shapeTask:         func() srpc.BinaryUnmarshaler { return new(wireTask) },
	shapeTaskResult:   func() srpc.BinaryUnmarshaler { return new(wireTaskResult) },
}

// FuzzRemoteShapes drives arbitrary bytes through every replication,
// accessor and exertion decoder, with FuzzRegistrarShapes' properties:
// never panic; decoding allocates in proportion to the bytes received;
// an accepted payload re-encodes to one that decodes equal.
func FuzzRemoteShapes(f *testing.F) {
	ts := time.Unix(1700000000, 42)
	r := wireReading{Sensor: "Neem-Sensor", Kind: "temperature", Unit: "celsius", Value: 21.5, Timestamp: ts}
	ctx := sorcer.NewContextFrom("arg/x", 2.5, "arg/n", int64(-3), "arg/ok", true, "arg/name", "avg", "arg/list", []any{"a", 1.0})
	for _, v := range []srpc.BinaryMarshaler{
		wireShipResult{NextSeq: 41},
		wireShipSnapshot{Epoch: 3, Seq: 40, Data: []byte("snapshot")},
		wireHeartbeat{Epoch: 3},
		r,
		wireReadings{r, {Sensor: "rtd-2", Value: math.NaN()}},
		readingsParams{Service: "Neem-Sensor", N: 8},
		serviceParams{Service: "Neem-Sensor"},
		wireTask{Name: "t0", ServiceType: "Adder", Selector: "add", ProviderName: "adder-1", Context: ctx},
		wireTaskResult{Context: ctx},
	} {
		b, err := v.AppendSrpc(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v.SrpcShape(), b)
		f.Add(v.SrpcShape(), b[:len(b)-1]) // truncated
		f.Add(v.SrpcShape(), append(b, 0)) // trailing byte
	}
	f.Add(shapeReadings, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})                                 // claims 2^32 readings
	f.Add(shapeTaskResult, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})                               // claims 2^32 context entries
	f.Add(shapeShipSnapshot, []byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})                       // claims a 4 GiB snapshot
	f.Add(shapeReading, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03}) // 1e9 ns
	f.Fuzz(func(t *testing.T, shape byte, data []byte) {
		mk, ok := remoteShapes[shape]
		if !ok {
			return
		}
		// The decode runs twice and the smaller count is judged: heap
		// counters are process-wide, and the fuzzing engine allocates
		// beside the first run now and then.
		var v srpc.BinaryUnmarshaler
		var err error
		decode := func() { v = mk(); err = v.UnmarshalSrpc(shape, data) }
		if n := min(allocatedBy(decode), allocatedBy(decode)); n > allocPerByte*uint64(len(data))+allocSlack {
			t.Fatalf("shape %d: decoding %d bytes allocated %d", shape, len(data), n)
		}
		if err != nil {
			return
		}
		enc, err := v.(srpc.BinaryMarshaler).AppendSrpc(nil)
		if err != nil {
			t.Fatalf("shape %d: accepted %#v does not re-encode: %v", shape, v, err)
		}
		again := mk()
		if err := again.UnmarshalSrpc(shape, enc); err != nil {
			t.Fatalf("shape %d: re-encoded %#v does not decode: %v", shape, v, err)
		}
		if a, b := canonRemote(v), canonRemote(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("shape %d: %#v came back as %#v", shape, a, b)
		}
	})
}

// canonRemote dereferences a decoded shape and swaps every float for
// its bits, so NaN compares equal to itself.
func canonRemote(v srpc.BinaryUnmarshaler) any {
	switch x := v.(type) {
	case *wireReading:
		return canonReading(*x)
	case *wireReadings:
		c := make([]any, len(*x))
		for i, r := range *x {
			c[i] = canonReading(r)
		}
		return c
	case *wireTask:
		return []any{x.Name, x.ServiceType, x.Selector, x.ProviderName, canonContext(x.Context)}
	case *wireTaskResult:
		return canonContext(x.Context)
	}
	return reflect.ValueOf(v).Elem().Interface()
}

func canonReading(r wireReading) any {
	return struct {
		wireReading
		bits uint64
	}{wireReading{Sensor: r.Sensor, Kind: r.Kind, Unit: r.Unit, Timestamp: r.Timestamp}, math.Float64bits(r.Value)}
}

func canonContext(ctx *sorcer.Context) map[string]any {
	out := make(map[string]any, ctx.Len())
	for _, p := range ctx.Paths() {
		v, _ := ctx.Get(p)
		if fl, ok := v.(float64); ok {
			v = math.Float64bits(fl)
		}
		out[p] = v
	}
	return out
}
