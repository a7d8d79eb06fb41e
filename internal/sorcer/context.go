// Package sorcer implements the exertion-oriented programming (EOP) model
// of the SORCER metacomputing environment the paper builds on (§IV-D): a
// requestor describes a collaboration as an exertion — service data (a
// ServiceContext), operations (Signatures) and a control strategy — and
// calls Exert, which federates with currently available providers to run
// it. Elementary exertions (Tasks) bind to a single provider; composite
// exertions (Jobs) are coordinated by rendezvous peers: the Jobber (push
// mode, direct dispatch) or the Spacer (pull mode, tuple-space
// distribution via package space).
package sorcer

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Context is the service context: the hierarchical data an exertion's
// operations read and write, addressed by slash-separated paths such as
// "sensor/temperature/value". It is the collaboration's shared document —
// requestors put inputs in, providers put outputs back.
type Context struct {
	mu   sync.RWMutex
	data map[string]any
}

// NewContext creates an empty context.
func NewContext() *Context { return &Context{data: make(map[string]any)} }

// NewContextFrom creates a context from alternating path/value pairs.
func NewContextFrom(kv ...any) *Context {
	if len(kv)%2 != 0 {
		panic("sorcer.NewContextFrom: odd number of path/value arguments")
	}
	c := NewContext()
	for i := 0; i < len(kv); i += 2 {
		c.Put(kv[i].(string), kv[i+1])
	}
	return c
}

// ErrNoPath is returned when a context path is absent.
var ErrNoPath = errors.New("sorcer: no such context path")

// Put stores a value at the path.
func (c *Context) Put(path string, v any) {
	c.mu.Lock()
	c.data[path] = v
	c.mu.Unlock()
}

// Get returns the value at the path.
func (c *Context) Get(path string) (any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.data[path]
	return v, ok
}

// MustGet returns the value at the path or an ErrNoPath-wrapped error.
func (c *Context) MustGet(path string) (any, error) {
	if v, ok := c.Get(path); ok {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoPath, path)
}

// Float returns a float64 at the path, coercing integer kinds.
func (c *Context) Float(path string) (float64, error) {
	v, err := c.MustGet(path)
	if err != nil {
		return 0, err
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("sorcer: path %q holds %T, want number", path, v)
	}
}

// String returns a string value at the path.
func (c *Context) StringAt(path string) (string, error) {
	v, err := c.MustGet(path)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("sorcer: path %q holds %T, want string", path, v)
	}
	return s, nil
}

// Paths returns all paths in sorted order.
func (c *Context) Paths() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.data))
	for p := range c.data {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of paths.
func (c *Context) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.data)
}

// Clone deep-copies the path map (values are shared).
func (c *Context) Clone() *Context {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Context{data: make(map[string]any, len(c.data))}
	for k, v := range c.data {
		out.data[k] = v
	}
	return out
}

// Merge copies every path of other into c, overwriting collisions.
func (c *Context) Merge(other *Context) {
	if other == nil {
		return
	}
	other.mu.RLock()
	pairs := make(map[string]any, len(other.data))
	for k, v := range other.data {
		pairs[k] = v
	}
	other.mu.RUnlock()
	c.mu.Lock()
	for k, v := range pairs {
		c.data[k] = v
	}
	c.mu.Unlock()
}

// Sub returns a new context holding the paths under the given prefix, with
// the prefix stripped — e.g. Sub("sensor") of {"sensor/v": 1} is {"v": 1}.
func (c *Context) Sub(prefix string) *Context {
	clean := strings.TrimSuffix(prefix, "/") + "/"
	out := NewContext()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, v := range c.data {
		if strings.HasPrefix(k, clean) {
			out.data[strings.TrimPrefix(k, clean)] = v
		}
	}
	return out
}

// String renders the context sorted by path, one pair per line.
func (c *Context) String() string {
	paths := c.Paths()
	var b strings.Builder
	for _, p := range paths {
		v, _ := c.Get(p)
		fmt.Fprintf(&b, "%s = %v\n", p, v)
	}
	return b.String()
}
