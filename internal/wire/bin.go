// Append/Consume primitives for sensorcer's binary wire formats. The
// srpc binary codec, the hot-shape encoders in internal/remote and the
// space journal build every frame and record from these instead of
// encoding/json (or encoding/binary, whose helpers the noalloc analyzer
// cannot see through): Append* grow a caller-owned buffer amortized,
// Consume* parse without copying — a consumed byte slice aliases the
// input — and never panic on truncated or hostile input (they return
// ok=false instead).
package wire

import (
	"encoding/json"
	"math"
)

// AppendUvarint appends v in LEB128 (the same uvarint encoding
// encoding/binary uses, reimplemented so noalloc-annotated encoders can
// call it).
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		//lint:allocok amortized growth of the caller-owned encode buffer
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	//lint:allocok amortized growth of the caller-owned encode buffer
	return append(b, byte(v))
}

// AppendSvarint appends v zigzag-encoded as a uvarint.
func AppendSvarint(b []byte, v int64) []byte {
	return AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// AppendUint64LE appends v as 8 fixed little-endian bytes.
func AppendUint64LE(b []byte, v uint64) []byte {
	//lint:allocok amortized growth of the caller-owned encode buffer
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendFloat64 appends the IEEE 754 bits of v little-endian.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64LE(b, math.Float64bits(v))
}

// AppendBytes appends a uvarint length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	//lint:allocok amortized growth of the caller-owned encode buffer
	return append(b, p...)
}

// AppendString appends a uvarint length prefix followed by s.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	//lint:allocok amortized growth of the caller-owned encode buffer
	return append(b, s...)
}

// maxVarintLen64 bounds a uvarint at 10 bytes (64 bits / 7 per byte).
const maxVarintLen64 = 10

// ConsumeUvarint parses a LEB128 uvarint from the front of b, returning
// the value and the unconsumed remainder. ok is false on truncated or
// overlong (>64-bit) input.
func ConsumeUvarint(b []byte) (v uint64, rest []byte, ok bool) {
	var shift uint
	for i, c := range b {
		if i >= maxVarintLen64 || (i == maxVarintLen64-1 && c > 1) {
			return 0, b, false // value overflows 64 bits
		}
		if c < 0x80 {
			return v | uint64(c)<<shift, b[i+1:], true
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, b, false
}

// ConsumeSvarint parses a zigzag-encoded svarint from the front of b.
func ConsumeSvarint(b []byte) (int64, []byte, bool) {
	u, rest, ok := ConsumeUvarint(b)
	return int64(u>>1) ^ -int64(u&1), rest, ok
}

// ConsumeUint64LE parses 8 fixed little-endian bytes.
func ConsumeUint64LE(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return v, b[8:], true
}

// ConsumeFloat64 parses an IEEE 754 double written by AppendFloat64.
func ConsumeFloat64(b []byte) (float64, []byte, bool) {
	u, rest, ok := ConsumeUint64LE(b)
	return math.Float64frombits(u), rest, ok
}

// ConsumeBytes parses a length-prefixed byte slice. The returned slice
// aliases b — zero-copy; callers that retain it past the life of the
// input buffer must copy.
func ConsumeBytes(b []byte) ([]byte, []byte, bool) {
	n, rest, ok := ConsumeUvarint(b)
	if !ok || n > uint64(len(rest)) {
		return nil, b, false
	}
	return rest[:n:n], rest[n:], true
}

// ConsumeString parses a length-prefixed string (one copy — strings are
// immutable).
func ConsumeString(b []byte) (string, []byte, bool) {
	p, rest, ok := ConsumeBytes(b)
	if !ok {
		return "", b, false
	}
	return string(p), rest, true
}

// Value tags of the tagged-value format: the scalar kinds attr.Value
// admits, plus a JSON blob fallback for anything richer (lists in
// exertion contexts). Part of the wire and journal formats — append only.
const (
	valString  byte = 0
	valFalse   byte = 1
	valTrue    byte = 2
	valInt64   byte = 3
	valFloat64 byte = 4
	valJSON    byte = 5
)

// AppendValue appends v as a tagged value. Strings, bools, int64 and
// float64 keep their Go types through a round trip, unlike JSON, which
// folds every number into float64; anything else rides as a JSON blob
// (so a Go int comes back as float64) and an error is returned, with b
// unchanged, when JSON rejects it.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return AppendString(append(b, valString), x), nil
	case bool:
		if x {
			return append(b, valTrue), nil
		}
		return append(b, valFalse), nil
	case int64:
		return AppendSvarint(append(b, valInt64), x), nil
	case float64:
		return AppendFloat64(append(b, valFloat64), x), nil
	default:
		blob, err := json.Marshal(v)
		if err != nil {
			return b, err
		}
		return AppendBytes(append(b, valJSON), blob), nil
	}
}

// ConsumeValue parses a tagged value written by AppendValue. Strings are
// copied out, so the value never aliases b.
func ConsumeValue(b []byte) (any, []byte, bool) {
	if len(b) < 1 {
		return nil, b, false
	}
	tag, rest := b[0], b[1:]
	switch tag {
	case valString:
		s, rest, ok := ConsumeString(rest)
		return s, rest, ok
	case valFalse:
		return false, rest, true
	case valTrue:
		return true, rest, true
	case valInt64:
		v, rest, ok := ConsumeSvarint(rest)
		return v, rest, ok
	case valFloat64:
		v, rest, ok := ConsumeFloat64(rest)
		return v, rest, ok
	case valJSON:
		blob, rest, ok := ConsumeBytes(rest)
		if !ok {
			return nil, b, false
		}
		var v any
		if err := json.Unmarshal(blob, &v); err != nil {
			return nil, b, false
		}
		return v, rest, true
	}
	return nil, b, false
}
