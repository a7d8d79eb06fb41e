package attr

import (
	"slices"

	"sensorcer/internal/wire"
)

// The binary attribute format is shared by the srpc lookup and registrar
// shapes (package remote) and the lookup service's journal (package
// registry): a uvarint entry count, then per entry its type and a uvarint
// field count, then per field its name and a wire tagged value. Fields are
// written in name order, so equal sets encode to equal bytes. Consumers
// bound every count by the bytes that remain, so a forged count cannot
// reserve memory the input does not carry.

// AppendSet appends set in the binary attribute format. It fails only
// when a field holds a value wire.AppendValue cannot encode.
func AppendSet(b []byte, set Set) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(set)))
	var stack [8]string
	var err error
	for _, e := range set {
		b = wire.AppendString(b, e.Type)
		b = wire.AppendUvarint(b, uint64(len(e.Fields)))
		keys := stack[:0]
		for k := range e.Fields {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = wire.AppendString(b, k)
			if b, err = wire.AppendValue(b, e.Fields[k]); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// ConsumeSet parses a set written by AppendSet. Decoded strings are copied
// out, so the set never aliases b.
func ConsumeSet(b []byte) (Set, []byte, bool) {
	n, b, ok := wire.ConsumeUvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	var set Set
	if n > 0 {
		set = make(Set, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var e Entry
		if e.Type, b, ok = wire.ConsumeString(b); !ok {
			return nil, b, false
		}
		var nf uint64
		if nf, b, ok = wire.ConsumeUvarint(b); !ok || nf > uint64(len(b)) {
			return nil, b, false
		}
		if nf > 0 {
			e.Fields = make(map[string]Value, nf)
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

// AppendTypes appends a service's interface type names: a uvarint count,
// then each name.
func AppendTypes(b []byte, types []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(types)))
	for _, t := range types {
		b = wire.AppendString(b, t)
	}
	return b
}

// ConsumeTypes parses a list written by AppendTypes.
func ConsumeTypes(b []byte) ([]string, []byte, bool) {
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
