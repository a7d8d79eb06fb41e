// Package attr implements Jini-style service attributes ("entries") and
// template matching. A lookup template matches a registered service when,
// for every entry in the template, the service carries an entry of the same
// type whose specified fields are all equal; unspecified (absent) fields act
// as wildcards. This is the exact matching rule the Jini lookup service
// applies, and sensorcer's registry, tuple space and discovery layers all
// reuse it.
package attr

import (
	"fmt"
	"sort"
	"strings"
)

// Value is an attribute field value. Values are restricted to a small set
// of comparable scalar kinds so matching is exact and serialization through
// the JSON RPC layer is loss-free: string, bool, int64, float64.
type Value any

// Normalize maps convenience numeric kinds onto the canonical ones so that
// Entry fields set from untyped constants compare equal after a round trip
// through JSON (which decodes numbers as float64). Matches compares
// normalized values; an index over field values must key on them too.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// Entry is a single typed attribute, e.g. Location{building: "CP TTU"}.
type Entry struct {
	// Type names the entry kind, e.g. "Location", "Comment", "SensorType".
	Type string `json:"type"`
	// Fields maps field name to value. A field absent from a template
	// entry is a wildcard.
	Fields map[string]Value `json:"fields,omitempty"`
}

// New constructs an Entry of the given type from alternating key/value
// pairs. It panics on an odd number of arguments or a non-string key, which
// indicates a programming error at the call site.
func New(entryType string, kv ...any) Entry {
	if len(kv)%2 != 0 {
		panic("attr.New: odd number of key/value arguments")
	}
	e := Entry{Type: entryType, Fields: make(map[string]Value, len(kv)/2)}
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			panic(fmt.Sprintf("attr.New: key %v is not a string", kv[i]))
		}
		e.Fields[k] = Normalize(kv[i+1])
	}
	return e
}

// Get returns the named field and whether it is present.
func (e Entry) Get(field string) (Value, bool) {
	v, ok := e.Fields[field]
	return v, ok
}

// With returns a copy of e with the field set.
func (e Entry) With(field string, v Value) Entry {
	c := e.Clone()
	if c.Fields == nil {
		c.Fields = make(map[string]Value, 1)
	}
	c.Fields[field] = Normalize(v)
	return c
}

// Clone returns a deep copy of the entry.
func (e Entry) Clone() Entry {
	c := Entry{Type: e.Type}
	if e.Fields != nil {
		c.Fields = make(map[string]Value, len(e.Fields))
		for k, v := range e.Fields {
			c.Fields[k] = v
		}
	}
	return c
}

// Matches reports whether candidate satisfies template entry e: the types
// are equal and every field present in e equals the corresponding candidate
// field. Numeric fields compare after normalization, so int and int64
// template values match.
func (e Entry) Matches(candidate Entry) bool {
	if e.Type != candidate.Type {
		return false
	}
	for k, want := range e.Fields {
		got, ok := candidate.Fields[k]
		if !ok || Normalize(got) != Normalize(want) {
			return false
		}
	}
	return true
}

// Equal reports whether two entries have identical type and fields.
func (e Entry) Equal(o Entry) bool {
	if e.Type != o.Type || len(e.Fields) != len(o.Fields) {
		return false
	}
	return e.Matches(o)
}

// String renders the entry as Type{k=v, ...} with sorted keys, matching the
// flavor of the attribute panel in the paper's Fig. 2.
func (e Entry) String() string {
	keys := make([]string, 0, len(e.Fields))
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(e.Type)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", k, e.Fields[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Set is an unordered collection of entries attached to a service.
type Set []Entry

// CloneSet deep-copies a set.
func CloneSet(s Set) Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	for i, e := range s {
		c[i] = e.Clone()
	}
	return c
}

// MatchesTemplate reports whether the set satisfies every entry of the
// template: each template entry must be matched by at least one set entry.
// An empty or nil template matches everything.
func (s Set) MatchesTemplate(template Set) bool {
	for _, te := range template {
		matched := false
		for _, se := range s {
			if te.Matches(se) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// Find returns the first entry of the given type, if any.
func (s Set) Find(entryType string) (Entry, bool) {
	for _, e := range s {
		if e.Type == entryType {
			return e, true
		}
	}
	return Entry{}, false
}

// Replace returns a set where every entry with e's type is replaced by e;
// if none exists, e is appended. This mirrors the Jini admin operation of
// modifying lookup attributes.
func (s Set) Replace(e Entry) Set {
	out := make(Set, 0, len(s)+1)
	replaced := false
	for _, cur := range s {
		if cur.Type == e.Type {
			if !replaced {
				out = append(out, e.Clone())
				replaced = true
			}
			continue
		}
		out = append(out, cur)
	}
	if !replaced {
		out = append(out, e.Clone())
	}
	return out
}

// String renders all entries sorted by type for stable output.
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	sort.Strings(parts)
	return "[" + strings.Join(parts, " ") + "]"
}

// Well-known entry types mirroring those visible in the paper's Fig. 2
// attribute panel (Name, Comment, Location, SorcerServiceType) plus the
// sensor-specific entries SenSORCER adds.
const (
	TypeName        = "Name"
	TypeComment     = "Comment"
	TypeLocation    = "Location"
	TypeServiceInfo = "ServiceInfo"
	TypeSensorType  = "SensorType"
	TypeServiceType = "SorcerServiceType"
)

// Name builds the standard Name entry.
func Name(name string) Entry { return New(TypeName, "name", name) }

// Comment builds the standard Comment entry ("Comment.comment" in Fig. 2).
func Comment(comment string) Entry { return New(TypeComment, "comment", comment) }

// Location builds the standard Location entry; Fig. 2 shows
// Location{building="CP TTU", floor="3", room="310"}.
func Location(building, floor, room string) Entry {
	return New(TypeLocation, "building", building, "floor", floor, "room", room)
}

// ServiceInfo describes the provider implementation.
func ServiceInfo(manufacturer, model, version string) Entry {
	return New(TypeServiceInfo, "manufacturer", manufacturer, "model", model, "version", version)
}

// SensorType labels a sensor provider with its measurement kind and unit,
// e.g. ("temperature", "celsius").
func SensorType(kind, unit string) Entry {
	return New(TypeSensorType, "kind", kind, "unit", unit)
}

// ServiceType mirrors the SorcerServiceType entry from Fig. 2: the provider
// category (ELEMENTARY, COMPOSITE, FACADE, ...) used by the browser.
func ServiceType(category string) Entry {
	return New(TypeServiceType, "category", category)
}

// NameOf extracts the Name entry value from a set, or "" when absent.
func NameOf(s Set) string {
	e, ok := s.Find(TypeName)
	if !ok {
		return ""
	}
	v, _ := e.Get("name")
	name, _ := v.(string)
	return name
}
