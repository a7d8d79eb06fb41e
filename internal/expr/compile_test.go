package expr

import (
	"math"
	"strings"
	"testing"
)

// refNumber runs the tree-walking reference, coerced to a number.
func refNumber(t *testing.T, p *Program, env Env) (float64, error) {
	t.Helper()
	return p.EvalNumber(env)
}

func TestBindEvalFloats(t *testing.T) {
	names := []string{"a", "b", "c"}
	slots := []float64{10, 20, 60}
	hist := [][]float64{{10, 20, 60}, nil, nil}
	cases := []string{
		"(a + b + c) / 3",
		"a - avg(a_hist)",
		"a > b ? a : b",
		"a >= 10 && b < 100 ? c : 0",
		"max(values) - min(values)",
		"avg(values)",
		"sum(a, b, c) / len(values)",
		"clamp(a, 0, 15)",
		"if(a > b, a, b)",
		"pow(a, 2) + sqrt(b)",
		"c2f(a)",
		"stddev(values)",
		"a_hist[0] + values[2]",
		"-a % 7",
		"a ^ 2",
		"!(a > b) ? b : a",
		"pi * a",
		"abs(a - b) <= 10 || a == c ? 1 : 0",
	}
	for _, src := range cases {
		t.Run(src, func(t *testing.T) {
			p := MustCompile(src)
			bp, err := p.Bind(names)
			if err != nil {
				t.Fatalf("Bind(%q): %v", src, err)
			}
			got, err := bp.EvalFloats(slots, hist)
			if err != nil {
				t.Fatalf("EvalFloats: %v", err)
			}
			env := Env{
				"a": slots[0], "b": slots[1], "c": slots[2],
				"a_hist": hist[0], "values": slots,
			}
			want, err := refNumber(t, p, env)
			if err != nil {
				t.Fatalf("reference eval: %v", err)
			}
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("EvalFloats = %v, reference = %v", got, want)
			}
		})
	}
}

func TestBindErrorsMatchReference(t *testing.T) {
	names := []string{"a", "b"}
	cases := []struct {
		src   string
		slots []float64
		hist  [][]float64
	}{
		{"a / b", []float64{1, 0}, nil},
		{"a % b", []float64{1, 0}, nil},
		{"log(a)", []float64{-1, 0}, nil},
		{"avg(a_hist)", []float64{1, 2}, [][]float64{nil, nil}},
		{"a_hist[3]", []float64{1, 2}, [][]float64{{5}, nil}},
		{"clamp(a, 9, b)", []float64{5, 1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			p := MustCompile(tc.src)
			bp, err := p.Bind(names)
			if err != nil {
				t.Fatalf("Bind: %v", err)
			}
			_, fastErr := bp.EvalFloats(tc.slots, tc.hist)
			env := Env{"a": tc.slots[0], "b": tc.slots[1], "values": tc.slots}
			if tc.hist != nil {
				ah := tc.hist[0]
				if ah == nil {
					ah = []float64{}
				}
				env["a_hist"] = ah
			}
			_, refErr := refNumber(t, p, env)
			if fastErr == nil || refErr == nil {
				t.Fatalf("want errors from both paths, got fast=%v ref=%v", fastErr, refErr)
			}
			if fastErr.Error() != refErr.Error() {
				t.Fatalf("error mismatch:\n fast: %v\n  ref: %v", fastErr, refErr)
			}
		})
	}
}

func TestBindRejectsNonNumeric(t *testing.T) {
	names := []string{"a", "b"}
	cases := []string{
		`"x" + "y"`,        // strings
		`[a, b]`,           // list literal
		`median(a, b)`,     // sorts (allocates)
		`a + d`,            // unbound variable
		`a > b`,            // bool-rooted
		`unknownfn(a)`,     // unknown function
		`len(a)`,           // scalar len always errors
		`a > 0 ? a : true`, // mixed branch types
	}
	for _, src := range cases {
		if _, err := MustCompile(src).Bind(names); err == nil {
			t.Errorf("Bind(%q) unexpectedly succeeded", src)
		}
	}
}

func TestBindSlotCountChecked(t *testing.T) {
	bp, err := MustCompile("a + b").Bind([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if n := bp.NumSlots(); n != 2 {
		t.Fatalf("NumSlots = %d, want 2", n)
	}
	if _, err := bp.EvalFloats([]float64{1}, nil); err == nil {
		t.Fatal("want error for short slot vector")
	}
}

func TestEvalFloatsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is covered by the non-race run")
	}
	names := []string{"a", "b", "c"}
	slots := []float64{10, 20, 60}
	hist := [][]float64{{10, 20, 60, 40}, nil, nil}
	for _, src := range []string{
		"(a + b + c) / 3",
		"a - avg(a_hist)",
		"a >= 10 && b < 100 ? c : 0",
		"max(values) - min(values)",
		"stddev(values) + clamp(a, 0, 100)",
	} {
		bp, err := MustCompile(src).Bind(names)
		if err != nil {
			t.Fatalf("Bind(%q): %v", src, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := bp.EvalFloats(slots, hist); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("EvalFloats(%q): %v allocs/op, want 0", src, allocs)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	// Constant expressions evaluate lazily where the language says so: the
	// dead branch of a conditional and the right operand of a decided
	// && / || never raise, and errors (including unknown-function and
	// arity errors) surface from Eval, never from Compile.
	cases := []struct {
		src     string
		want    Value
		wantErr string
	}{
		{src: "1 + 2 * 3", want: 7.0},
		{src: "true ? 1 : 1/0", want: 1.0},
		{src: "false && (1/0 == 1)", want: false},
		{src: "true || (1/0 == 1)", want: true},
		{src: "1/0", wantErr: "division by zero"},
		{src: "false ? 1/0 : 2", want: 2.0},
		{src: "avg(2, 4)", want: 3.0},
		{src: "min([1, 2], 0)", want: 0.0},
		{src: `"a" + "b"`, want: "ab"},
		{src: "log(0)", wantErr: "non-positive argument"},
		{src: "nosuchfn(1)", wantErr: `unknown function "nosuchfn"`},
		{src: "false ? pow(1) : 2", want: 2.0},
		{src: "pow(1)", wantErr: "want at least 2 argument(s), got 1"},
		{src: "[1, 2][3]", wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			got, err := MustCompile(tc.src).Eval(nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if !valuesEqual(got, tc.want) {
				t.Fatalf("Eval = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNormalizeValueKinds(t *testing.T) {
	cases := []struct {
		name string
		in   Value
		want Value
	}{
		{"int16", int16(-7), -7.0},
		{"uint16", uint16(40000), 40000.0},
		{"uint32", uint32(70000), 70000.0},
		{"int", int(3), 3.0},
		{"int32", int32(-3), -3.0},
		{"int64", int64(9), 9.0},
		{"uint", uint(4), 4.0},
		{"uint64", uint64(8), 8.0},
		{"float32", float32(1.5), 1.5},
		{"[]int", []int{1, 2}, []Value{1.0, 2.0}},
		{"[]float32", []float32{0.5, 1.5}, []Value{0.5, 1.5}},
		{"[]float64", []float64{1, 2}, []Value{1.0, 2.0}},
		{"bool", true, true},
		{"string", "s", "s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := normalizeValue(tc.in)
			if err != nil {
				t.Fatalf("normalizeValue(%v): %v", tc.in, err)
			}
			if !valuesEqual(got, tc.want) {
				t.Fatalf("normalizeValue(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
	for _, bad := range []Value{uint8(1), struct{}{}, []string{"x"}, complex(1, 2)} {
		if _, err := normalizeValue(bad); err == nil {
			t.Errorf("normalizeValue(%T) unexpectedly succeeded", bad)
		}
	}
}

func TestNormalizeValueKindsThroughEnv(t *testing.T) {
	p := MustCompile("avg(xs) + n")
	v, err := p.Eval(Env{"xs": []int{2, 4}, "n": uint16(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v != 4.0 {
		t.Fatalf("got %v, want 4", v)
	}
}

// valuesEqual compares runtime values treating NaN as equal to NaN.
func valuesEqual(a, b Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		if !ok {
			return false
		}
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !valuesEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}
