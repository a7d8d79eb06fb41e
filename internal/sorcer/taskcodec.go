package sorcer

import (
	"errors"

	"sensorcer/internal/attr"
	"sensorcer/internal/space"
	"sensorcer/internal/wire"
)

// taskCodec makes *Task values durable inside tuple-space entries: the
// Spacer's exertion envelopes carry the task as a payload field, and a
// durable space must journal it to redispatch recovered-but-untaken
// envelopes after a restart. Only the dispatchable essence is serialized —
// identity, name, signature and context data. Execution state (status,
// error) is not: a recovered envelope is by definition un-executed, and
// its task restarts from Initial, matching at-least-once redispatch
// semantics.
//
// The encoding (on-disk format) is the 16-byte id, then name, service
// type, selector and provider name as wire strings, then the signature's
// attribute entries and the context (AppendContext), each a count
// followed by keys and wire tagged values (wire.AppendValue). A Go int is
// written as int64, so integers come back as int64, the kind package attr
// matches on.
type taskCodec struct{}

func init() { space.RegisterPayloadCodec(taskCodec{}) }

// Name implements space.PayloadCodec.
func (taskCodec) Name() string { return "sorcer.task" }

// Append implements space.PayloadCodec. A context value the tagged-value
// format rejects makes the task unencodable: the space then degrades the
// field to opaque rather than failing the write.
func (taskCodec) Append(b []byte, v any) ([]byte, bool) {
	t, ok := v.(*Task)
	if !ok {
		return b, false
	}
	sig := t.Signature()
	b = append(b, t.id[:]...)
	for _, s := range [...]string{t.name, sig.ServiceType, sig.Selector, sig.ProviderName} {
		b = wire.AppendString(b, s)
	}
	b = wire.AppendUvarint(b, uint64(len(sig.Attributes)))
	var err error
	for _, e := range sig.Attributes {
		b = wire.AppendString(b, e.Type)
		b = wire.AppendUvarint(b, uint64(len(e.Fields)))
		for k, v := range e.Fields {
			if b, err = appendTaskValue(wire.AppendString(b, k), v); err != nil {
				return b, false
			}
		}
	}
	b, err = AppendContext(b, t.Context())
	return b, err == nil
}

// AppendContext appends c in the task encoding's context layout: a path
// count, then each path and its wire tagged value, a Go int as int64.
// The space's task journal and the remote exertion shapes both encode
// contexts with it, so a value comes back the same kind from either.
func AppendContext(b []byte, c *Context) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b = wire.AppendUvarint(b, uint64(len(c.data)))
	var err error
	for p, v := range c.data {
		if b, err = appendTaskValue(wire.AppendString(b, p), v); err != nil {
			return b, err
		}
	}
	return b, nil
}

// ConsumeContext parses a context AppendContext wrote. Strings are copied
// out, so the context never aliases b.
func ConsumeContext(b []byte) (*Context, []byte, bool) {
	r := taskReader{b: b, ok: true}
	c := r.context()
	return c, r.b, r.ok
}

func appendTaskValue(b []byte, v any) ([]byte, error) {
	if i, ok := v.(int); ok {
		v = int64(i)
	}
	return wire.AppendValue(b, v)
}

var errBadTask = errors.New("sorcer: malformed task payload")

// Decode implements space.PayloadCodec.
func (taskCodec) Decode(data []byte) (any, error) {
	t := &Task{}
	if len(data) < len(t.id) {
		return nil, errBadTask
	}
	copy(t.id[:], data)
	t.key = t.id.String()
	r := taskReader{b: data[len(t.id):], ok: true}
	t.name = r.str()
	t.signature = Signature{ServiceType: r.str(), Selector: r.str(), ProviderName: r.str()}
	for n := r.count(); n > 0 && r.ok; n-- {
		e := attr.Entry{Type: r.str()}
		if nf := r.count(); nf > 0 {
			e.Fields = make(map[string]attr.Value, nf)
			for ; nf > 0 && r.ok; nf-- {
				e.Fields[r.str()] = r.value()
			}
		}
		t.signature.Attributes = append(t.signature.Attributes, e)
	}
	t.ctx = r.context()
	if !r.ok || len(r.b) != 0 {
		return nil, errBadTask
	}
	return t, nil
}

// taskReader consumes a task encoding, latching the first failure.
type taskReader struct {
	b  []byte
	ok bool
}

func (r *taskReader) str() string {
	s, rest, ok := wire.ConsumeString(r.b)
	r.b, r.ok = rest, r.ok && ok
	return s
}

// count reads a collection length, refusing one the input cannot hold.
func (r *taskReader) count() uint64 {
	n, rest, ok := wire.ConsumeUvarint(r.b)
	r.b, r.ok = rest, r.ok && ok && n <= uint64(len(rest))
	return n
}

func (r *taskReader) value() any {
	v, rest, ok := wire.ConsumeValue(r.b)
	r.b, r.ok = rest, r.ok && ok
	return v
}

func (r *taskReader) context() *Context {
	c := NewContext()
	for n := r.count(); n > 0 && r.ok; n-- {
		c.data[r.str()] = r.value()
	}
	return c
}
