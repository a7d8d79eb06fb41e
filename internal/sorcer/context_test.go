package sorcer

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sensorcer/internal/attr"
)

func TestContextPutGet(t *testing.T) {
	c := NewContext()
	c.Put("sensor/temperature/value", 22.5)
	v, ok := c.Get("sensor/temperature/value")
	if !ok || v != 22.5 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing path reported present")
	}
}

func TestContextMustGet(t *testing.T) {
	c := NewContext()
	if _, err := c.MustGet("x"); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestContextFloatCoercion(t *testing.T) {
	c := NewContextFrom("a", 1, "b", int64(2), "c", float32(3), "d", 4.0, "s", "str")
	for path, want := range map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4} {
		got, err := c.Float(path)
		if err != nil || got != want {
			t.Fatalf("Float(%s) = %v, %v", path, got, err)
		}
	}
	if _, err := c.Float("s"); err == nil {
		t.Fatal("Float on string accepted")
	}
	if _, err := c.Float("nope"); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestContextStringAt(t *testing.T) {
	c := NewContextFrom("name", "Neem-Sensor", "n", 1)
	s, err := c.StringAt("name")
	if err != nil || s != "Neem-Sensor" {
		t.Fatalf("StringAt = %q, %v", s, err)
	}
	if _, err := c.StringAt("n"); err == nil {
		t.Fatal("StringAt on number accepted")
	}
}

func TestContextFromPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewContextFrom("a")
}

func TestContextLenPaths(t *testing.T) {
	c := NewContextFrom("b", 2, "a", 1)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	paths := c.Paths()
	if paths[0] != "a" || paths[1] != "b" {
		t.Fatalf("Paths = %v", paths)
	}
}

func TestContextCloneIndependence(t *testing.T) {
	c := NewContextFrom("a", 1)
	cl := c.Clone()
	cl.Put("a", 2)
	if v, _ := c.Get("a"); v != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestContextMerge(t *testing.T) {
	a := NewContextFrom("x", 1, "y", 2)
	b := NewContextFrom("y", 3, "z", 4)
	a.Merge(b)
	if v, _ := a.Get("y"); v != 3 {
		t.Fatal("Merge did not overwrite")
	}
	if v, _ := a.Get("z"); v != 4 {
		t.Fatal("Merge did not add")
	}
	a.Merge(nil) // no-op
}

func TestContextSub(t *testing.T) {
	c := NewContextFrom("sensor/value", 22.0, "sensor/unit", "C", "other/x", 1)
	sub := c.Sub("sensor")
	if sub.Len() != 2 {
		t.Fatalf("Sub len = %d", sub.Len())
	}
	if v, _ := sub.Get("value"); v != 22.0 {
		t.Fatal("Sub did not strip prefix")
	}
	if strings.Contains(sub.String(), "other") {
		t.Fatal("Sub leaked foreign paths")
	}
}

func TestContextString(t *testing.T) {
	c := NewContextFrom("b", 2, "a", 1)
	if got := c.String(); got != "a = 1\nb = 2\n" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Put then Get returns the stored value for arbitrary paths.
func TestPropertyContextRoundTrip(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		c := NewContext()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := map[string]int64{}
		for i := 0; i < n; i++ {
			c.Put(keys[i], vals[i])
			want[keys[i]] = vals[i]
		}
		for k, v := range want {
			got, ok := c.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return c.Len() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureString(t *testing.T) {
	s := Sig("SensorDataAccessor", "getValue")
	if s.String() != "getValue@SensorDataAccessor" {
		t.Fatalf("String = %q", s.String())
	}
	s.ProviderName = "Neem-Sensor"
	if s.String() != "getValue@SensorDataAccessor[Neem-Sensor]" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Initial: "INITIAL", Running: "RUNNING", Done: "DONE", Failed: "FAILED", Status(9): "Status(9)",
	} {
		if s.String() != want {
			t.Fatalf("%d = %q", s, s.String())
		}
	}
}

func TestTaskBasics(t *testing.T) {
	task := NewTask("read", Sig("X", "get"), nil)
	if task.ID().IsZero() || task.Name() != "read" || task.IsJob() {
		t.Fatal("task basics wrong")
	}
	if task.Status() != Initial || task.Err() != nil {
		t.Fatal("fresh task state wrong")
	}
	if task.Context() == nil {
		t.Fatal("nil context not defaulted")
	}
}

func TestJobAggregatesComponentContexts(t *testing.T) {
	t1 := NewTask("first", Sig("X", "get"), NewContextFrom("out", 1.0))
	t2 := NewTask("second", Sig("X", "get"), NewContextFrom("out", 2.0))
	job := NewJob("combo", Strategy{}, t1, t2)
	if !job.IsJob() || job.Name() != "combo" {
		t.Fatal("job basics wrong")
	}
	job.aggregateContexts()
	v, ok := job.Context().Get("first/out")
	if !ok || v != 1.0 {
		t.Fatalf("aggregate first/out = %v, %v", v, ok)
	}
	if v, _ := job.Context().Get("second/out"); v != 2.0 {
		t.Fatalf("aggregate second/out = %v", v)
	}
}

// TestTaskCodecRoundTrip: the journal form of a task keeps its identity,
// signature and context, with a Go int coming back as int64 and other
// tagged kinds unchanged.
func TestTaskCodecRoundTrip(t *testing.T) {
	sig := Sig("Adder", "add")
	sig.ProviderName = "Adder-1"
	sig.Attributes = attr.Set{{Type: "Location", Fields: map[string]attr.Value{"room": "lab", "floor": 3}}}
	task := NewTask("add-1", sig, NewContextFrom("arg/a", 1.5, "arg/n", 7, "arg/s", "x", "arg/l", []any{"a", 2.0}))
	data, ok := taskCodec{}.Append([]byte("prefix"), task)
	if !ok || string(data[:6]) != "prefix" {
		t.Fatalf("Append = %q, %v", data, ok)
	}
	v, err := taskCodec{}.Decode(data[6:])
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*Task)
	wantSig := sig
	wantSig.Attributes = attr.Set{{Type: "Location", Fields: map[string]attr.Value{"room": "lab", "floor": int64(3)}}}
	if got.ID() != task.ID() || got.Name() != "add-1" || !reflect.DeepEqual(got.Signature(), wantSig) {
		t.Fatalf("decoded %v %q %+v", got.ID(), got.Name(), got.Signature())
	}
	want := map[string]any{"arg/a": 1.5, "arg/n": int64(7), "arg/s": "x", "arg/l": []any{"a", 2.0}}
	if !reflect.DeepEqual(got.Context().data, want) {
		t.Fatalf("decoded context %v, want %v", got.Context().data, want)
	}
	if _, err := (taskCodec{}).Decode(data[6 : len(data)-1]); err == nil {
		t.Fatal("truncated task decoded")
	}
	if _, ok := (taskCodec{}).Append(nil, "not a task"); ok {
		t.Fatal("codec claimed a foreign value")
	}
}
