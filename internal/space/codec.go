package space

import (
	"errors"
	"fmt"
	"sync"

	"sensorcer/internal/wire"
)

// The journal format. Every record is binary, built from internal/wire
// primitives:
//
//	op byte | uvarint id | uvarint txn
//	write records then carry: string kind | svarint leaseMS | fields
//	fields: uvarint n | n × (string key | string codec | value)
//
// A field's value is a wire tagged value (wire.AppendValue) when codec is
// "", nothing when it is "opaque", and otherwise the named PayloadCodec's
// bytes behind a uvarint length. A snapshot is opSnapshot | uvarint nextID
// | uvarint n | n × (uvarint takenTxn | write record). No op byte is '{',
// the first byte of every record the earlier JSON journal wrote, so such a
// log is refused by name instead of misread.

// Journal operation tags: the first byte of every record (on-disk format).
const (
	opWrite byte = 1 + iota
	opTake
	opExpire
	opCommit
	opAbort
	opSnapshot
)

// errJSONJournal is returned by Recover for a log (or snapshot) written in
// the earlier JSON journal format, which this version does not read.
var errJSONJournal = errors.New("space: the log uses the old JSON journal format, which this version does not read")

var errMalformed = errors.New("space: malformed journal record")

// record is one redo-log record. Write and take records are tagged with
// the staging transaction in txn (0 = none); commit and abort records
// resolve it. Snapshot entries are write records whose taken holds the
// transaction with a provisional take, if any.
type record struct {
	op      byte
	id, txn uint64
	taken   uint64
	entry   Entry
	leaseMS int64
}

// appendRecord appends r's encoding (taken is not part of it).
func appendRecord(b []byte, r *record) []byte {
	b = append(b, r.op)
	b = wire.AppendUvarint(b, r.id)
	b = wire.AppendUvarint(b, r.txn)
	if r.op != opWrite {
		return b
	}
	b = wire.AppendString(b, r.entry.Kind)
	b = wire.AppendSvarint(b, r.leaseMS)
	return appendFields(b, r.entry.Fields)
}

// decodeRecord parses one whole journal record.
func decodeRecord(b []byte) (record, error) {
	r, rest, err := consumeRecord(b)
	if err == nil && len(rest) != 0 {
		err = errMalformed
	}
	return r, err
}

func consumeRecord(b []byte) (record, []byte, error) {
	var r record
	if len(b) == 0 {
		return r, b, errMalformed
	}
	if b[0] == '{' {
		return r, b, errJSONJournal
	}
	r.op = b[0]
	if r.op < opWrite || r.op > opAbort {
		return r, b, fmt.Errorf("space: unknown journal op %d", r.op)
	}
	var ok1, ok2 bool
	r.id, b, ok1 = wire.ConsumeUvarint(b[1:])
	r.txn, b, ok2 = wire.ConsumeUvarint(b)
	if !ok1 || !ok2 {
		return r, b, errMalformed
	}
	if r.op != opWrite {
		return r, b, nil
	}
	var ok bool
	if r.entry.Kind, b, ok = wire.ConsumeString(b); !ok {
		return r, b, errMalformed
	}
	if r.leaseMS, b, ok = wire.ConsumeSvarint(b); !ok {
		return r, b, errMalformed
	}
	var err error
	r.entry.Fields, b, err = consumeFields(b)
	return r, b, err
}

// appendSnapshot appends a checkpoint of entries (write records).
func appendSnapshot(b []byte, nextID uint64, entries []record) []byte {
	b = append(b, opSnapshot)
	b = wire.AppendUvarint(b, nextID)
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		b = wire.AppendUvarint(b, entries[i].taken)
		b = appendRecord(b, &entries[i])
	}
	return b
}

// decodeSnapshot parses a checkpoint written by appendSnapshot.
func decodeSnapshot(b []byte) (nextID uint64, entries []*record, err error) {
	if len(b) > 0 && b[0] == '{' {
		return 0, nil, errJSONJournal
	}
	if len(b) == 0 || b[0] != opSnapshot {
		return 0, nil, fmt.Errorf("space: decoding snapshot: %w", errMalformed)
	}
	nextID, b, ok1 := wire.ConsumeUvarint(b[1:])
	n, b, ok2 := wire.ConsumeUvarint(b)
	if !ok1 || !ok2 || n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("space: decoding snapshot: %w", errMalformed)
	}
	entries = make([]*record, 0, n)
	for i := uint64(0); i < n; i++ {
		taken, rest, ok := wire.ConsumeUvarint(b)
		if !ok {
			return 0, nil, fmt.Errorf("space: decoding snapshot: %w", errMalformed)
		}
		r, rest, err := consumeRecord(rest)
		if err == nil && r.op != opWrite {
			err = errMalformed
		}
		if err != nil {
			return 0, nil, fmt.Errorf("space: decoding snapshot: %w", err)
		}
		r.taken = taken
		entries = append(entries, &r)
		b = rest
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("space: decoding snapshot: %w", errMalformed)
	}
	return nextID, entries, nil
}

// PayloadCodec serializes entry field values the tagged-value format
// cannot round-trip — rich payload objects such as exertion tasks.
// Packages that put such values into a durable space register a codec
// (package sorcer registers one for *Task); strings, bools, int64s and
// float64s need none, and other JSON-encodable values (maps, slices) ride
// as JSON.
//
// The codec's bytes are opaque to the space: it stores them behind a
// length and hands exactly them back to Decode. Decode must invert Append
// and must not retain data, which aliases the journal record.
type PayloadCodec interface {
	// Name tags encoded values in the journal; it must be unique and
	// stable across restarts — it is part of the on-disk format.
	Name() string
	// Append appends v's encoding to b, or reports ok=false for a value
	// that is not this codec's (the returned slice is then ignored).
	Append(b []byte, v any) (out []byte, ok bool)
	// Decode reverses Append.
	Decode(data []byte) (any, error)
}

var (
	codecMu     sync.RWMutex
	codecs      []PayloadCodec
	codecByName = make(map[string]PayloadCodec)
)

// RegisterPayloadCodec installs a codec for durable field serialization.
// Typically called from an init function; registering two codecs with the
// same name panics (the name is an on-disk format tag).
func RegisterPayloadCodec(c PayloadCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecByName[c.Name()]; dup {
		panic(fmt.Sprintf("space: payload codec %q registered twice", c.Name()))
	}
	codecByName[c.Name()] = c
	codecs = append(codecs, c)
}

// opaqueCodec tags values no codec claimed and JSON rejected (channels,
// functions, cyclic payloads). They survive as nil after recovery: the
// entry and its matchable fields persist, the opaque payload does not.
const opaqueCodec = "opaque"

// appendFields appends an entry's field map. Values are tried against
// registered codecs first, then the tagged-value format; unserializable
// values degrade to opaque (recovered as nil).
func appendFields(b []byte, fields map[string]any) []byte {
	b = wire.AppendUvarint(b, uint64(len(fields)))
	codecMu.RLock()
	defer codecMu.RUnlock()
	for k, v := range fields {
		b = wire.AppendString(b, k)
		b = appendFieldLocked(b, v)
	}
	return b
}

func appendFieldLocked(b []byte, v any) []byte {
	for _, c := range codecs {
		named := wire.AppendString(b, c.Name())
		out, ok := c.Append(named, v)
		if !ok {
			continue
		}
		// The length goes in front of the bytes the codec appended: grow
		// by its size, shift those bytes up, and write it.
		n := len(out) - len(named)
		var pre [10]byte
		p := wire.AppendUvarint(pre[:0], uint64(n))
		out = append(out, p...)
		copy(out[len(named)+len(p):], out[len(named):len(named)+n])
		copy(out[len(named):], p)
		return out
	}
	if out, err := wire.AppendValue(wire.AppendString(b, ""), v); err == nil {
		return out
	}
	return wire.AppendString(b, opaqueCodec)
}

// consumeFields parses a field map written by appendFields. Numbers keep
// the kinds the tagged-value format preserves (int64, float64); anything
// that rode as JSON comes back with JSON's kinds (float64 numbers).
func consumeFields(b []byte) (map[string]any, []byte, error) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, errMalformed
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make(map[string]any, n)
	codecMu.RLock()
	defer codecMu.RUnlock()
	for i := uint64(0); i < n; i++ {
		var k, codec string
		if k, b, ok = wire.ConsumeString(b); !ok {
			return nil, b, errMalformed
		}
		if codec, b, ok = wire.ConsumeString(b); !ok {
			return nil, b, errMalformed
		}
		switch codec {
		case "":
			if out[k], b, ok = wire.ConsumeValue(b); !ok {
				return nil, b, fmt.Errorf("space: decoding field %q: %w", k, errMalformed)
			}
		case opaqueCodec:
			out[k] = nil
		default:
			c, found := codecByName[codec]
			if !found {
				return nil, b, fmt.Errorf("space: field %q uses unregistered codec %q", k, codec)
			}
			var data []byte
			if data, b, ok = wire.ConsumeBytes(b); !ok {
				return nil, b, fmt.Errorf("space: decoding field %q: %w", k, errMalformed)
			}
			v, err := c.Decode(data)
			if err != nil {
				return nil, b, fmt.Errorf("space: codec %q decoding field %q: %w", codec, k, err)
			}
			out[k] = v
		}
	}
	return out, b, nil
}
