package remote

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
	"sensorcer/internal/srpc"
)

// registrarShapes are the discovery-path payloads a lookup service or a
// provider decodes from its peer: lookups (5, 6) and registrar writes
// (13–18). Each entry makes a fresh decode target.
var registrarShapes = map[byte]func() srpc.BinaryUnmarshaler{
	shapeLookupParams: func() srpc.BinaryUnmarshaler { return new(lookupParams) },
	shapeItems:        func() srpc.BinaryUnmarshaler { return new(wireItems) },
	shapeRegister:     func() srpc.BinaryUnmarshaler { return new(registerParams) },
	shapeRegistered:   func() srpc.BinaryUnmarshaler { return new(registerResult) },
	shapeLease:        func() srpc.BinaryUnmarshaler { return new(leaseParams) },
	shapeRenewed:      func() srpc.BinaryUnmarshaler { return new(renewResult) },
	shapeID:           func() srpc.BinaryUnmarshaler { return new(idParams) },
	shapeModify:       func() srpc.BinaryUnmarshaler { return new(modifyParams) },
}

// Decoding n bytes may allocate at most allocPerByte*n + allocSlack
// bytes: enough for every slot a payload's own bytes can pay for, far
// below what one unchecked count prefix would reserve.
const (
	allocPerByte = 128
	allocSlack   = 4 << 10
)

// FuzzRegistrarShapes drives arbitrary bytes through every lookup and
// registrar-write decoder. Properties: never panic; decoding allocates
// in proportion to the bytes received, so a forged count cannot reserve
// memory the payload does not carry; an accepted payload re-encodes to
// one that decodes equal.
func FuzzRegistrarShapes(f *testing.F) {
	id := ids.ServiceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	attrs := attr.Set{{Type: "Location", Fields: map[string]attr.Value{"room": "lab", "floor": int64(2), "x": 1.5}}}
	proxy := &ProxyDesc{Kind: "accessor", Locator: "127.0.0.1:4160", Service: "Neem-Sensor"}
	item := wireItem{ID: id, Types: []string{"sensor.ESP"}, Attributes: attrs, Proxy: proxy}
	exp := time.Unix(1700000000, 42)
	for _, v := range []srpc.BinaryMarshaler{
		lookupParams{ID: id, Types: []string{"sensor.ESP", "sensor.CSP"}, Attributes: attrs, Max: 8},
		wireItems{item, {ID: id}},
		registerParams{Item: item, Lease: 10 * time.Second},
		registerResult{ServiceID: id, LeaseID: 77, Expiration: exp},
		leaseParams{LeaseID: 77, Lease: -time.Millisecond},
		renewResult{Expiration: exp},
		idParams{ID: id},
		modifyParams{ID: id, Attributes: attrs},
	} {
		b, err := v.AppendSrpc(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v.SrpcShape(), b)
		f.Add(v.SrpcShape(), b[:len(b)-1])        // truncated
		f.Add(v.SrpcShape(), append(b, 0))        // trailing byte
		f.Add(v.SrpcShape(), append(id[:], 0x7f)) // a count claiming more than follows
	}
	f.Add(shapeItems, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // claims 2^32 items
	f.Fuzz(func(t *testing.T, shape byte, data []byte) {
		mk, ok := registrarShapes[shape]
		if !ok {
			return
		}
		// The decode runs twice and the smaller count is judged, as in
		// FuzzRemoteShapes: heap counters are process-wide, and the
		// fuzzing engine allocates beside the first run now and then.
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
		if a, b := canonRegistrar(v), canonRegistrar(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("shape %d: %#v came back as %#v", shape, a, b)
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

// canonRegistrar dereferences a decoded shape and swaps every float
// attribute value for its bits, so NaN compares equal to itself.
func canonRegistrar(v srpc.BinaryUnmarshaler) any {
	switch x := v.(type) {
	case *lookupParams:
		c := *x
		c.Attributes = canonAttrs(c.Attributes)
		return c
	case *wireItems:
		c := make(wireItems, len(*x))
		for i, w := range *x {
			w.Attributes = canonAttrs(w.Attributes)
			c[i] = w
		}
		return c
	case *registerParams:
		c := *x
		c.Item.Attributes = canonAttrs(c.Item.Attributes)
		return c
	case *modifyParams:
		c := *x
		c.Attributes = canonAttrs(c.Attributes)
		return c
	}
	return reflect.ValueOf(v).Elem().Interface()
}

func canonAttrs(set attr.Set) attr.Set {
	if set == nil {
		return nil
	}
	out := make(attr.Set, len(set))
	for i, e := range set {
		out[i].Type = e.Type
		if e.Fields == nil {
			continue
		}
		out[i].Fields = make(map[string]attr.Value, len(e.Fields))
		for k, fv := range e.Fields {
			if fl, ok := fv.(float64); ok {
				fv = math.Float64bits(fl)
			}
			out[i].Fields[k] = fv
		}
	}
	return out
}
