// The update wire codec: a compact, stream-stateful delta encoding for
// subscription updates, riding srpc's binary fast path as payload shape
// ShapeUpdate. Sensor metadata (name, kind, unit) is sent once per
// stream and referenced by index afterwards, timestamps ride as
// millisecond deltas from a per-update base — which itself rides as a
// millisecond delta from the previous update's base, so the steady
// state pays one or two bytes where an absolute stamp costs eight —
// and values are quantized svarints at wire.Quantum. The steady-state
// cost of one delivered reading is a few bytes, not a JSON object. The
// per-stream state is safe because srpc streams are ordered and
// reliable: the decoder sees every meta and every base exactly when
// the encoder emitted it.
package subscribe

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/wire"
)

// ShapeUpdate is the srpc payload-shape tag for a subscription update.
// Shape tags are allocated per package: srpc reserves 0, internal/remote
// owns 1..31, internal/wire owns 32..47, this package owns 48+.
const ShapeUpdate byte = 48

// updateMeta is the per-sensor metadata sent once per stream.
type updateMeta struct {
	sensor string
	kind   string
	unit   string
}

// UpdateEncoder encodes updates for one stream, carrying the meta
// dictionary and the previous update's base timestamp. Not safe for
// concurrent use — each stream's pump owns one.
type UpdateEncoder struct {
	idx map[updateMeta]uint64
	// bySensor caches, per hub sensor index (Update.ids), the meta that
	// sensor last sent and its dictionary index, so a reading whose meta
	// has not changed is referenced without hashing three strings. A miss
	// — a new sensor, a changed kind or unit, an update from no hub —
	// consults idx, which stays the dictionary.
	bySensor []cachedMeta
	// prevBaseMS is the decoder-visible base of the last non-empty
	// update, in unix millis; the next base is sent as a delta from it.
	prevBaseMS int64
}

// cachedMeta is one bySensor entry; ref is the dictionary index plus one
// (0: empty).
type cachedMeta struct {
	meta updateMeta
	ref  uint64
}

// Append encodes u:
//
//	uvarint seq | uvarint dropped | uvarint count |
//	[count > 0: svarint millis(base - previous base)] then per reading:
//	  uvarint ref      0 = new sensor, meta strings follow and the
//	                   sensor takes the next dictionary index;
//	                   else dictionary index + 1
//	  [ref == 0: sensor | kind | unit, each uvarint-length-prefixed]
//	  svarint millis(timestamp - base)
//	  svarint round(value / wire.Quantum)
//
// The base is the first reading's timestamp at millisecond resolution;
// the first non-empty update on a stream pays the absolute unix-millis
// value (prevBaseMS starts at zero), every later one a small delta.
func (e *UpdateEncoder) Append(b []byte, u *Update) []byte {
	b = wire.AppendUvarint(b, u.SeqNo)
	b = wire.AppendUvarint(b, u.Dropped)
	b = wire.AppendUvarint(b, uint64(len(u.Readings)))
	if len(u.Readings) == 0 {
		return b
	}
	baseMS := u.Readings[0].Timestamp.UnixMilli()
	b = wire.AppendSvarint(b, baseMS-e.prevBaseMS)
	e.prevBaseMS = baseMS
	for i := range u.Readings {
		r := &u.Readings[i]
		if ref, known := e.ref(u, i); known {
			b = wire.AppendUvarint(b, ref+1)
		} else {
			b = append(b, 0)
			b = wire.AppendString(b, r.Sensor)
			b = wire.AppendString(b, r.Kind)
			b = wire.AppendString(b, r.Unit)
		}
		b = wire.AppendSvarint(b, r.Timestamp.UnixMilli()-baseMS)
		b = wire.AppendSvarint(b, int64(math.Round(r.Value/wire.Quantum)))
	}
	return b
}

// ref returns the dictionary index of reading i's meta and whether the
// decoder already has it; a new meta takes the next index.
func (e *UpdateEncoder) ref(u *Update, i int) (uint64, bool) {
	r := &u.Readings[i]
	m := updateMeta{sensor: r.Sensor, kind: r.Kind, unit: r.Unit}
	var c *cachedMeta
	if i < len(u.ids) {
		e.bySensor = growTo(e.bySensor, u.ids[i])
		c = &e.bySensor[u.ids[i]]
		if c.ref != 0 && c.meta == m {
			return c.ref - 1, true
		}
	}
	ref, known := e.idx[m]
	if !known {
		if e.idx == nil {
			e.idx = make(map[updateMeta]uint64)
		}
		ref = uint64(len(e.idx))
		e.idx[m] = ref
	}
	if c != nil {
		*c = cachedMeta{meta: m, ref: ref + 1}
	}
	return ref, known
}

// UpdateDecoder decodes one stream's updates, growing the meta
// dictionary in the order the encoder introduced entries and tracking
// the previous base timestamp the base deltas chain from. Not safe for
// concurrent use.
type UpdateDecoder struct {
	metas []updateMeta
	// prevBaseMS mirrors the encoder's: the base of the last non-empty
	// update, in unix millis.
	prevBaseMS int64
}

// errTruncated reports malformed update bytes.
var errTruncated = errors.New("subscribe: truncated update")

// Decode parses one encoded update.
func (d *UpdateDecoder) Decode(b []byte) (Update, error) {
	seq, b, ok := wire.ConsumeUvarint(b)
	if !ok {
		return Update{}, errTruncated
	}
	dropped, b, ok := wire.ConsumeUvarint(b)
	if !ok {
		return Update{}, errTruncated
	}
	count, b, ok := wire.ConsumeUvarint(b)
	if !ok {
		return Update{}, errTruncated
	}
	u := Update{SeqNo: seq, Dropped: dropped}
	if count == 0 {
		if len(b) != 0 {
			return Update{}, errTruncated
		}
		return u, nil
	}
	// Each reading costs at least 3 bytes (ref, delta, value), so a
	// hostile count cannot force a huge allocation.
	if count > uint64(len(b))/3+1 {
		return Update{}, errTruncated
	}
	baseDelta, b, ok := wire.ConsumeSvarint(b)
	if !ok {
		return Update{}, errTruncated
	}
	baseMS := d.prevBaseMS + baseDelta
	d.prevBaseMS = baseMS
	u.Readings = make([]probe.Reading, 0, count)
	for i := uint64(0); i < count; i++ {
		ref, rest, ok := wire.ConsumeUvarint(b)
		if !ok {
			return Update{}, errTruncated
		}
		b = rest
		var m updateMeta
		if ref == 0 {
			var sOk, kOk, uOk bool
			m.sensor, b, sOk = wire.ConsumeString(b)
			m.kind, b, kOk = wire.ConsumeString(b)
			m.unit, b, uOk = wire.ConsumeString(b)
			if !sOk || !kOk || !uOk {
				return Update{}, errTruncated
			}
			d.metas = append(d.metas, m)
		} else {
			if ref > uint64(len(d.metas)) {
				return Update{}, fmt.Errorf("subscribe: update references unknown sensor meta %d (dictionary has %d)", ref-1, len(d.metas))
			}
			m = d.metas[ref-1]
		}
		deltaMS, rest, ok := wire.ConsumeSvarint(b)
		if !ok {
			return Update{}, errTruncated
		}
		q, rest, ok := wire.ConsumeSvarint(rest)
		if !ok {
			return Update{}, errTruncated
		}
		b = rest
		u.Readings = append(u.Readings, probe.Reading{
			Sensor:    m.sensor,
			Kind:      m.kind,
			Unit:      m.unit,
			Value:     float64(q) * wire.Quantum,
			Timestamp: time.UnixMilli(baseMS + deltaMS),
		})
	}
	if len(b) != 0 {
		return Update{}, errTruncated
	}
	return u, nil
}

// WireUpdate adapts an Update to srpc's structural binary-payload
// interfaces (SrpcShape/AppendSrpc/UnmarshalSrpc) without importing
// srpc. Enc backs sends, Dec backs receives; U points at the update to
// encode or fill.
type WireUpdate struct {
	U   *Update
	Enc *UpdateEncoder
	Dec *UpdateDecoder
}

// SrpcShape tags the payload.
func (w WireUpdate) SrpcShape() byte { return ShapeUpdate }

// AppendSrpc encodes the update through the stream's encoder.
func (w WireUpdate) AppendSrpc(b []byte) ([]byte, error) {
	return w.Enc.Append(b, w.U), nil
}

// UnmarshalSrpc decodes an update through the stream's decoder.
func (w *WireUpdate) UnmarshalSrpc(shape byte, b []byte) error {
	if shape != ShapeUpdate {
		return fmt.Errorf("subscribe: unexpected payload shape %#x", shape)
	}
	u, err := w.Dec.Decode(b)
	if err != nil {
		return err
	}
	*w.U = u
	return nil
}
