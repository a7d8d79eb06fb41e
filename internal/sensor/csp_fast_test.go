package sensor

import (
	"math"
	"testing"

	"sensorcer/internal/sensor/probe"
)

// fixedAccessor is an allocation-free DataAccessor for exercising the
// CSP's slot-bound read path in isolation.
type fixedAccessor struct {
	name string
	val  float64
	unit string
	hist []float64
}

func (f *fixedAccessor) SensorName() string { return f.name }
func (f *fixedAccessor) GetValue() (probe.Reading, error) {
	return probe.Reading{Sensor: f.name, Kind: "temperature", Unit: f.unit, Value: f.val}, nil
}
func (f *fixedAccessor) GetReadings(n int) []probe.Reading {
	if n <= 0 || n > len(f.hist) {
		n = len(f.hist)
	}
	out := make([]probe.Reading, n)
	for i, v := range f.hist[len(f.hist)-n:] {
		out[i] = probe.Reading{Sensor: f.name, Value: v, Unit: f.unit}
	}
	return out
}
func (f *fixedAccessor) AppendValues(dst []float64, n int) []float64 {
	if n <= 0 || n > len(f.hist) {
		n = len(f.hist)
	}
	return append(dst, f.hist[len(f.hist)-n:]...)
}
func (f *fixedAccessor) Describe() probe.Info {
	return probe.Info{Name: f.name, Kind: "temperature", Unit: f.unit}
}

func fastCSP(t *testing.T, src string, vals ...float64) *CSP {
	t.Helper()
	c := NewCSP("fast", WithSequentialReads())
	for i, v := range vals {
		acc := &fixedAccessor{name: varName(i) + "-sensor", val: v, unit: "celsius", hist: []float64{v - 1, v, v + 1}}
		if _, err := c.AddChild(acc); err != nil {
			t.Fatal(err)
		}
	}
	if src != "" {
		if err := c.SetExpression(src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCSPSlotBindingRebinds asserts Bind happens at mutation time and
// tracks child changes: an expression set before its variables exist
// binds as soon as the children arrive, and re-binds after removal.
func TestCSPSlotBindingRebinds(t *testing.T) {
	c := NewCSP("rebind", WithSequentialReads())
	if err := c.SetExpression("a + b"); err != nil {
		t.Fatal(err)
	}
	if c.boundProgram() != nil {
		t.Fatal("bound with zero children")
	}
	a := &fixedAccessor{name: "s-a", val: 1, unit: "c"}
	b := &fixedAccessor{name: "s-b", val: 2, unit: "c"}
	if _, err := c.AddChild(a); err != nil {
		t.Fatal(err)
	}
	if c.boundProgram() != nil {
		t.Fatal("bound with one child for a two-variable expression")
	}
	if _, err := c.AddChild(b); err != nil {
		t.Fatal(err)
	}
	if c.boundProgram() == nil {
		t.Fatal("not bound once both variables exist")
	}
	r, err := c.GetValue()
	if err != nil || r.Value != 3 {
		t.Fatalf("GetValue = (%v, %v), want 3", r.Value, err)
	}
	if err := c.RemoveChild("s-b"); err != nil {
		t.Fatal(err)
	}
	if c.boundProgram() != nil {
		t.Fatal("still bound after losing a referenced child")
	}
	if _, err := c.GetValue(); err == nil {
		t.Fatal("want unbound-variable error after removal")
	}
}

func (c *CSP) boundProgram() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bound == nil {
		return nil
	}
	return c.bound
}

// TestCSPFastPathMatchesEnvSemantics cross-checks composite values
// computed through the slot-bound fast path against direct evaluation of
// the same expression — the CSP-level differential.
func TestCSPFastPathMatchesEnvSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"(a + b + c) / 3", (10.0 + 20 + 60) / 3},
		{"a - avg(a_hist)", 10 - (9.0+10+11)/3},
		{"max(values) - min(values)", 50},
		{"a > b ? a : b", 20},
		{"clamp(sum(a, b), 0, 25)", 25},
		{"stddev(values) > 5 ? avg(values) : a", 30},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			c := fastCSP(t, tc.src, 10, 20, 60)
			if c.boundProgram() == nil {
				t.Fatalf("expression %q did not take the fast path", tc.src)
			}
			r, err := c.GetValue()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Value-tc.want) > 1e-9 {
				t.Fatalf("value = %v, want %v", r.Value, tc.want)
			}
		})
	}
}

// TestCSPReadPathAllocationFree is the satellite acceptance: steady-state
// sequential composite reads allocate nothing — on the expressionless
// default-average path AND on the slot-bound expression path (history
// included).
func TestCSPReadPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is covered by the non-race run")
	}
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"default-average", ""},
		{"expression", "(a + b + c) / 3"},
		{"expression-hist", "a - avg(a_hist)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fastCSP(t, tc.src, 10, 20, 60)
			if _, err := c.GetValue(); err != nil { // warm the scratch pool
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := c.GetValue(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("GetValue (%s): %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}
