// Hand-written binary fast paths for the hot srpc message shapes: repl
// ship batches (the write-ack path), registry lookups and registrar
// writes (the discovery path), accessor readings and exertion envelopes. Each wire struct
// implements srpc.BinaryMarshaler on its value form and
// srpc.BinaryUnmarshaler on its pointer form, so srpc picks the fast
// path automatically; a shape-0 payload still decodes into the same
// structs through their JSON tags.
//
// Layouts build on internal/wire's Append/Consume primitives. Dynamic
// values (attr fields, exertion context values) use wire's tagged-value
// format (wire.AppendValue): strings, bools, int64 and float64 survive a
// round trip with their Go types intact, and anything richer rides as a
// tagged JSON blob. Decoded shapes own their
// memory: consuming aliases the frame buffer, so every retained byte
// slice or string is copied out before the decoder returns. Ship-batch
// payloads are the exception: they stay views of the frame, because the
// WAL copies them before the handler returns.
package remote

import (
	"fmt"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/ids"
	"sensorcer/internal/wire"
)

// Payload shape tags owned by this package (srpc reserves 0 for JSON,
// internal/wire owns 32+). Part of the wire format — append only.
const (
	shapeShipBatch    byte = 1
	shapeShipResult   byte = 2
	shapeShipSnapshot byte = 3
	shapeHeartbeat    byte = 4
	shapeLookupParams byte = 5
	shapeItems        byte = 6
	shapeReading      byte = 7
	shapeReadings     byte = 8
	shapeReadingsReq  byte = 9
	shapeServiceReq   byte = 10
	shapeTask         byte = 11
	shapeTaskResult   byte = 12
	shapeRegister     byte = 13
	shapeRegistered   byte = 14
	shapeLease        byte = 15
	shapeRenewed      byte = 16
	shapeID           byte = 17
	shapeModify       byte = 18
)

func shapeErr(what string, shape byte) error {
	return fmt.Errorf("remote: unexpected payload shape %#x for %s", shape, what)
}

func malformedErr(what string) error {
	return fmt.Errorf("remote: malformed binary %s payload", what)
}

// --- shared sub-encodings ---

func appendTime(b []byte, t time.Time) []byte {
	b = wire.AppendSvarint(b, t.Unix())
	return wire.AppendUvarint(b, uint64(t.Nanosecond()))
}

func consumeTime(b []byte) (time.Time, []byte, bool) {
	sec, b, ok := wire.ConsumeSvarint(b)
	if !ok {
		return time.Time{}, b, false
	}
	nsec, b, ok := wire.ConsumeUvarint(b)
	if !ok || nsec >= 1e9 {
		return time.Time{}, b, false
	}
	return time.Unix(sec, int64(nsec)), b, true
}

func appendAttrSet(b []byte, set attr.Set) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(set)))
	var err error
	for _, e := range set {
		b = wire.AppendString(b, e.Type)
		b = wire.AppendUvarint(b, uint64(len(e.Fields)))
		for k, v := range e.Fields {
			b = wire.AppendString(b, k)
			if b, err = wire.AppendValue(b, v); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

func consumeAttrSet(b []byte) (attr.Set, []byte, bool) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	var set attr.Set
	if n > 0 {
		set = make(attr.Set, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var e attr.Entry
		if e.Type, b, ok = wire.ConsumeString(b); !ok {
			return nil, b, false
		}
		var nf uint64
		if nf, b, ok = wire.ConsumeUvarint(b); !ok || nf > uint64(len(b)) {
			return nil, b, false
		}
		if nf > 0 {
			e.Fields = make(map[string]attr.Value, nf)
		}
		for j := uint64(0); j < nf; j++ {
			var k string
			var v any
			if k, b, ok = wire.ConsumeString(b); !ok {
				return nil, b, false
			}
			if v, b, ok = wire.ConsumeValue(b); !ok {
				return nil, b, false
			}
			e.Fields[k] = v
		}
		set = append(set, e)
	}
	return set, b, true
}

func appendContext(b []byte, ctx map[string]any) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(ctx)))
	var err error
	for k, v := range ctx {
		b = wire.AppendString(b, k)
		if b, err = wire.AppendValue(b, v); err != nil {
			return b, err
		}
	}
	return b, nil
}

func consumeContext(b []byte) (map[string]any, []byte, bool) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	var ctx map[string]any
	if n > 0 {
		ctx = make(map[string]any, n)
	}
	for i := uint64(0); i < n; i++ {
		var k string
		var v any
		if k, b, ok = wire.ConsumeString(b); !ok {
			return nil, b, false
		}
		if v, b, ok = wire.ConsumeValue(b); !ok {
			return nil, b, false
		}
		ctx[k] = v
	}
	return ctx, b, true
}

func appendID(b []byte, id ids.ServiceID) []byte {
	//lint:allocok amortized growth of the caller-owned encode buffer
	return append(b, id[:]...)
}

func consumeID(b []byte) (ids.ServiceID, []byte, bool) {
	var id ids.ServiceID
	if len(b) < len(id) {
		return id, b, false
	}
	copy(id[:], b)
	return id, b[len(id):], true
}

func appendProxy(b []byte, p *ProxyDesc) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = wire.AppendString(b, p.Kind)
	b = wire.AppendString(b, p.Locator)
	return wire.AppendString(b, p.Service)
}

func consumeProxy(b []byte) (*ProxyDesc, []byte, bool) {
	if len(b) < 1 {
		return nil, b, false
	}
	present, rest := b[0], b[1:]
	if present == 0 {
		return nil, rest, true
	}
	var p ProxyDesc
	var ok bool
	if p.Kind, rest, ok = wire.ConsumeString(rest); !ok {
		return nil, b, false
	}
	if p.Locator, rest, ok = wire.ConsumeString(rest); !ok {
		return nil, b, false
	}
	if p.Service, rest, ok = wire.ConsumeString(rest); !ok {
		return nil, b, false
	}
	return &p, rest, true
}

func appendTypes(b []byte, types []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(types)))
	for _, t := range types {
		b = wire.AppendString(b, t)
	}
	return b
}

func consumeTypes(b []byte) ([]string, []byte, bool) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	var types []string
	if n > 0 {
		types = make([]string, n)
	}
	for i := range types {
		if types[i], b, ok = wire.ConsumeString(b); !ok {
			return nil, b, false
		}
	}
	return types, b, true
}

// appendItem encodes one service item: a lookup match or a registration.
func appendItem(b []byte, w wireItem) ([]byte, error) {
	b = appendTypes(appendID(b, w.ID), w.Types)
	b, err := appendAttrSet(b, w.Attributes)
	if err != nil {
		return b, err
	}
	return appendProxy(b, w.Proxy), nil
}

func consumeItem(b []byte) (wireItem, []byte, bool) {
	var w wireItem
	var ok bool
	if w.ID, b, ok = consumeID(b); !ok {
		return w, b, false
	}
	if w.Types, b, ok = consumeTypes(b); !ok {
		return w, b, false
	}
	if w.Attributes, b, ok = consumeAttrSet(b); !ok {
		return w, b, false
	}
	if w.Proxy, b, ok = consumeProxy(b); !ok {
		return w, b, false
	}
	return w, b, true
}

// --- replication shapes (the write-ack hot path) ---

// SrpcShape implements srpc.BinaryMarshaler.
func (w wireShipBatch) SrpcShape() byte { return shapeShipBatch }

// AppendSrpc encodes epoch | firstSeq | count | length-prefixed records.
// This is the per-acknowledged-write encode path, allocation-free beyond
// amortized buffer growth.
//
//lint:noalloc
func (w wireShipBatch) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, w.Epoch)
	buf = wire.AppendUvarint(buf, w.FirstSeq)
	buf = wire.AppendUvarint(buf, uint64(len(w.Payloads)))
	for _, p := range w.Payloads {
		buf = wire.AppendBytes(buf, p)
	}
	return buf, nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler. Record payloads are
// views of the request frame, valid for the handler call only: the
// handler hands them to repl.Node.ShipBatch, whose WAL append copies
// each into the log buffer before it returns.
func (w *wireShipBatch) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeShipBatch {
		return shapeErr("ship batch", shape)
	}
	var ok bool
	if w.Epoch, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("ship batch")
	}
	if w.FirstSeq, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("ship batch")
	}
	count, data, ok := wire.ConsumeUvarint(data)
	if !ok || count > uint64(len(data)) {
		return malformedErr("ship batch")
	}
	w.Payloads = make([][]byte, count)
	for i := range w.Payloads {
		if w.Payloads[i], data, ok = wire.ConsumeBytes(data); !ok {
			return malformedErr("ship batch")
		}
	}
	if len(data) != 0 {
		return malformedErr("ship batch")
	}
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (w wireShipResult) SrpcShape() byte { return shapeShipResult }

// AppendSrpc implements srpc.BinaryMarshaler.
//
//lint:noalloc
func (w wireShipResult) AppendSrpc(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, w.NextSeq), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (w *wireShipResult) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeShipResult {
		return shapeErr("ship result", shape)
	}
	next, rest, ok := wire.ConsumeUvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("ship result")
	}
	w.NextSeq = next
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (w wireShipSnapshot) SrpcShape() byte { return shapeShipSnapshot }

// AppendSrpc implements srpc.BinaryMarshaler.
func (w wireShipSnapshot) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, w.Epoch)
	buf = wire.AppendUvarint(buf, w.Seq)
	return wire.AppendBytes(buf, w.Data), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler; the snapshot bytes are
// copied out of the frame (the node retains them while installing).
func (w *wireShipSnapshot) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeShipSnapshot {
		return shapeErr("snapshot", shape)
	}
	var ok bool
	if w.Epoch, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("snapshot")
	}
	if w.Seq, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("snapshot")
	}
	view, rest, ok := wire.ConsumeBytes(data)
	if !ok || len(rest) != 0 {
		return malformedErr("snapshot")
	}
	w.Data = append([]byte(nil), view...)
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (w wireHeartbeat) SrpcShape() byte { return shapeHeartbeat }

// AppendSrpc implements srpc.BinaryMarshaler.
//
//lint:noalloc
func (w wireHeartbeat) AppendSrpc(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, w.Epoch), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (w *wireHeartbeat) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeHeartbeat {
		return shapeErr("heartbeat", shape)
	}
	epoch, rest, ok := wire.ConsumeUvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("heartbeat")
	}
	w.Epoch = epoch
	return nil
}

// --- registry lookup shapes (the discovery hot path) ---

// SrpcShape implements srpc.BinaryMarshaler.
func (p lookupParams) SrpcShape() byte { return shapeLookupParams }

// AppendSrpc implements srpc.BinaryMarshaler.
func (p lookupParams) AppendSrpc(buf []byte) ([]byte, error) {
	buf = appendTypes(appendID(buf, p.ID), p.Types)
	buf, err := appendAttrSet(buf, p.Attributes)
	if err != nil {
		return buf, err
	}
	return wire.AppendSvarint(buf, int64(p.Max)), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *lookupParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeLookupParams {
		return shapeErr("lookup params", shape)
	}
	var ok bool
	if p.ID, data, ok = consumeID(data); !ok {
		return malformedErr("lookup params")
	}
	if p.Types, data, ok = consumeTypes(data); !ok {
		return malformedErr("lookup params")
	}
	if p.Attributes, data, ok = consumeAttrSet(data); !ok {
		return malformedErr("lookup params")
	}
	max, rest, ok := wire.ConsumeSvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("lookup params")
	}
	p.Max = int(max)
	return nil
}

// wireItems is the lookup match list; named so the slice can carry the
// binary fast path as a response shape.
type wireItems []wireItem

// SrpcShape implements srpc.BinaryMarshaler.
func (ws wireItems) SrpcShape() byte { return shapeItems }

// AppendSrpc implements srpc.BinaryMarshaler.
func (ws wireItems) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(ws)))
	var err error
	for _, w := range ws {
		if buf, err = appendItem(buf, w); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (ws *wireItems) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeItems {
		return shapeErr("lookup matches", shape)
	}
	n, data, ok := wire.ConsumeUvarint(data)
	if !ok || n > uint64(len(data)) {
		return malformedErr("lookup matches")
	}
	out := make(wireItems, 0, n)
	for i := uint64(0); i < n; i++ {
		var w wireItem
		if w, data, ok = consumeItem(data); !ok {
			return malformedErr("lookup matches")
		}
		out = append(out, w)
	}
	if len(data) != 0 {
		return malformedErr("lookup matches")
	}
	*ws = out
	return nil
}

// --- registrar write shapes (registration and its lease) ---

// SrpcShape implements srpc.BinaryMarshaler.
func (p registerParams) SrpcShape() byte { return shapeRegister }

// AppendSrpc implements srpc.BinaryMarshaler.
func (p registerParams) AppendSrpc(buf []byte) ([]byte, error) {
	buf, err := appendItem(buf, p.Item)
	if err != nil {
		return buf, err
	}
	return wire.AppendSvarint(buf, int64(p.Lease)), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *registerParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeRegister {
		return shapeErr("register params", shape)
	}
	var ok bool
	if p.Item, data, ok = consumeItem(data); !ok {
		return malformedErr("register params")
	}
	d, rest, ok := wire.ConsumeSvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("register params")
	}
	p.Lease = time.Duration(d)
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (r registerResult) SrpcShape() byte { return shapeRegistered }

// AppendSrpc implements srpc.BinaryMarshaler.
func (r registerResult) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(appendID(buf, r.ServiceID), r.LeaseID)
	return appendTime(buf, r.Expiration), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (r *registerResult) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeRegistered {
		return shapeErr("register result", shape)
	}
	var ok bool
	if r.ServiceID, data, ok = consumeID(data); !ok {
		return malformedErr("register result")
	}
	if r.LeaseID, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("register result")
	}
	exp, rest, ok := consumeTime(data)
	if !ok || len(rest) != 0 {
		return malformedErr("register result")
	}
	r.Expiration = exp
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (p leaseParams) SrpcShape() byte { return shapeLease }

// AppendSrpc implements srpc.BinaryMarshaler.
func (p leaseParams) AppendSrpc(buf []byte) ([]byte, error) {
	return wire.AppendSvarint(wire.AppendUvarint(buf, p.LeaseID), int64(p.Lease)), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *leaseParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeLease {
		return shapeErr("lease params", shape)
	}
	var ok bool
	if p.LeaseID, data, ok = wire.ConsumeUvarint(data); !ok {
		return malformedErr("lease params")
	}
	d, rest, ok := wire.ConsumeSvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("lease params")
	}
	p.Lease = time.Duration(d)
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (r renewResult) SrpcShape() byte { return shapeRenewed }

// AppendSrpc implements srpc.BinaryMarshaler.
func (r renewResult) AppendSrpc(buf []byte) ([]byte, error) {
	return appendTime(buf, r.Expiration), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (r *renewResult) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeRenewed {
		return shapeErr("renew result", shape)
	}
	exp, rest, ok := consumeTime(data)
	if !ok || len(rest) != 0 {
		return malformedErr("renew result")
	}
	r.Expiration = exp
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (p idParams) SrpcShape() byte { return shapeID }

// AppendSrpc implements srpc.BinaryMarshaler.
func (p idParams) AppendSrpc(buf []byte) ([]byte, error) {
	return appendID(buf, p.ID), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *idParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeID {
		return shapeErr("id params", shape)
	}
	id, rest, ok := consumeID(data)
	if !ok || len(rest) != 0 {
		return malformedErr("id params")
	}
	p.ID = id
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (p modifyParams) SrpcShape() byte { return shapeModify }

// AppendSrpc implements srpc.BinaryMarshaler.
func (p modifyParams) AppendSrpc(buf []byte) ([]byte, error) {
	return appendAttrSet(appendID(buf, p.ID), p.Attributes)
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *modifyParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeModify {
		return shapeErr("modify params", shape)
	}
	var ok bool
	if p.ID, data, ok = consumeID(data); !ok {
		return malformedErr("modify params")
	}
	attrs, rest, ok := consumeAttrSet(data)
	if !ok || len(rest) != 0 {
		return malformedErr("modify params")
	}
	p.Attributes = attrs
	return nil
}

// --- accessor shapes (sensor reads) ---

func appendReading(b []byte, w wireReading) []byte {
	b = wire.AppendString(b, w.Sensor)
	b = wire.AppendString(b, w.Kind)
	b = wire.AppendString(b, w.Unit)
	b = wire.AppendFloat64(b, w.Value)
	return appendTime(b, w.Timestamp)
}

func consumeReading(b []byte) (wireReading, []byte, bool) {
	var w wireReading
	var ok bool
	if w.Sensor, b, ok = wire.ConsumeString(b); !ok {
		return w, b, false
	}
	if w.Kind, b, ok = wire.ConsumeString(b); !ok {
		return w, b, false
	}
	if w.Unit, b, ok = wire.ConsumeString(b); !ok {
		return w, b, false
	}
	if w.Value, b, ok = wire.ConsumeFloat64(b); !ok {
		return w, b, false
	}
	if w.Timestamp, b, ok = consumeTime(b); !ok {
		return w, b, false
	}
	return w, b, true
}

// SrpcShape implements srpc.BinaryMarshaler.
func (w wireReading) SrpcShape() byte { return shapeReading }

// AppendSrpc implements srpc.BinaryMarshaler.
//
//lint:noalloc
func (w wireReading) AppendSrpc(buf []byte) ([]byte, error) {
	return appendReading(buf, w), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (w *wireReading) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeReading {
		return shapeErr("reading", shape)
	}
	r, rest, ok := consumeReading(data)
	if !ok || len(rest) != 0 {
		return malformedErr("reading")
	}
	*w = r
	return nil
}

// wireReadings is the GetReadings batch; named so the slice can carry
// the binary fast path as a response shape.
type wireReadings []wireReading

// SrpcShape implements srpc.BinaryMarshaler.
func (ws wireReadings) SrpcShape() byte { return shapeReadings }

// AppendSrpc is the probe reading-batch encode path.
//
//lint:noalloc
func (ws wireReadings) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = appendReading(buf, w)
	}
	return buf, nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (ws *wireReadings) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeReadings {
		return shapeErr("readings", shape)
	}
	n, data, ok := wire.ConsumeUvarint(data)
	if !ok || n > uint64(len(data)) {
		return malformedErr("readings")
	}
	out := make(wireReadings, 0, n)
	for i := uint64(0); i < n; i++ {
		var w wireReading
		if w, data, ok = consumeReading(data); !ok {
			return malformedErr("readings")
		}
		out = append(out, w)
	}
	if len(data) != 0 {
		return malformedErr("readings")
	}
	*ws = out
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (p readingsParams) SrpcShape() byte { return shapeReadingsReq }

// AppendSrpc implements srpc.BinaryMarshaler.
//
//lint:noalloc
func (p readingsParams) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendString(buf, p.Service)
	return wire.AppendSvarint(buf, int64(p.N)), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *readingsParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeReadingsReq {
		return shapeErr("readings params", shape)
	}
	var ok bool
	if p.Service, data, ok = wire.ConsumeString(data); !ok {
		return malformedErr("readings params")
	}
	n, rest, ok := wire.ConsumeSvarint(data)
	if !ok || len(rest) != 0 {
		return malformedErr("readings params")
	}
	p.N = int(n)
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (p serviceParams) SrpcShape() byte { return shapeServiceReq }

// AppendSrpc implements srpc.BinaryMarshaler.
//
//lint:noalloc
func (p serviceParams) AppendSrpc(buf []byte) ([]byte, error) {
	return wire.AppendString(buf, p.Service), nil
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (p *serviceParams) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeServiceReq {
		return shapeErr("service params", shape)
	}
	var ok bool
	if p.Service, data, ok = wire.ConsumeString(data); !ok || len(data) != 0 {
		return malformedErr("service params")
	}
	return nil
}

// --- exertion envelope shapes ---

// SrpcShape implements srpc.BinaryMarshaler.
func (t wireTask) SrpcShape() byte { return shapeTask }

// AppendSrpc implements srpc.BinaryMarshaler.
func (t wireTask) AppendSrpc(buf []byte) ([]byte, error) {
	buf = wire.AppendString(buf, t.Name)
	buf = wire.AppendString(buf, t.ServiceType)
	buf = wire.AppendString(buf, t.Selector)
	buf = wire.AppendString(buf, t.ProviderName)
	return appendContext(buf, t.Context)
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (t *wireTask) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeTask {
		return shapeErr("task", shape)
	}
	var ok bool
	if t.Name, data, ok = wire.ConsumeString(data); !ok {
		return malformedErr("task")
	}
	if t.ServiceType, data, ok = wire.ConsumeString(data); !ok {
		return malformedErr("task")
	}
	if t.Selector, data, ok = wire.ConsumeString(data); !ok {
		return malformedErr("task")
	}
	if t.ProviderName, data, ok = wire.ConsumeString(data); !ok {
		return malformedErr("task")
	}
	ctx, rest, ok := consumeContext(data)
	if !ok || len(rest) != 0 {
		return malformedErr("task")
	}
	t.Context = ctx
	return nil
}

// SrpcShape implements srpc.BinaryMarshaler.
func (t wireTaskResult) SrpcShape() byte { return shapeTaskResult }

// AppendSrpc implements srpc.BinaryMarshaler.
func (t wireTaskResult) AppendSrpc(buf []byte) ([]byte, error) {
	return appendContext(buf, t.Context)
}

// UnmarshalSrpc implements srpc.BinaryUnmarshaler.
func (t *wireTaskResult) UnmarshalSrpc(shape byte, data []byte) error {
	if shape != shapeTaskResult {
		return shapeErr("task result", shape)
	}
	ctx, rest, ok := consumeContext(data)
	if !ok || len(rest) != 0 {
		return malformedErr("task result")
	}
	t.Context = ctx
	return nil
}
