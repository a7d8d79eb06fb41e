package expr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the differential harness for the float64 path: a generator
// produces random well-formed expressions, and every one that binds must
// evaluate identically — same value, same error text — through
// BoundProgram.EvalFloats and the tree walker (Program.Eval).

// genIdents is the identifier pool; it deliberately mixes bindable
// variables, history/values names the CSP uses, named constants, and a
// name the environments never bind (to exercise unbound-variable errors).
var genIdents = []string{"a", "b", "c", "x", "a_hist", "values", "pi", "nan", "zz_unbound"}

var genCalls = []struct {
	name  string
	arity []int
}{
	{"abs", []int{1}}, {"sqrt", []int{1}}, {"floor", []int{1}},
	{"round", []int{1}}, {"sin", []int{1}}, {"exp", []int{1}},
	{"log", []int{1}}, {"pow", []int{2}}, {"min", []int{1, 2, 3}},
	{"max", []int{1, 2, 3}}, {"sum", []int{1, 2, 3}}, {"avg", []int{1, 2, 3}},
	{"median", []int{1, 3}}, {"stddev", []int{1, 2}}, {"clamp", []int{3}},
	{"len", []int{1}}, {"if", []int{3}}, {"c2f", []int{1}}, {"f2c", []int{1}},
}

// genExpr emits a random expression that is guaranteed to parse; whether
// it evaluates or errors is exactly what the differential test compares.
func genExpr(r *rand.Rand, depth int) string {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return genIdents[r.Intn(len(genIdents))]
		case 1:
			return fmt.Sprintf("%g", float64(r.Intn(21)-10)/2)
		case 2:
			return []string{"true", "false"}[r.Intn(2)]
		default:
			return fmt.Sprintf("%q", []string{"s", "t", ""}[r.Intn(3)])
		}
	}
	switch r.Intn(10) {
	case 0:
		return genExpr(r, 0)
	case 1:
		op := []string{"-", "!"}[r.Intn(2)]
		return "(" + op + genExpr(r, depth-1) + ")"
	case 2, 3, 4:
		ops := []string{"+", "-", "*", "/", "%", "^", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
		return "(" + genExpr(r, depth-1) + " " + ops[r.Intn(len(ops))] + " " + genExpr(r, depth-1) + ")"
	case 5:
		return "(" + genExpr(r, depth-1) + " ? " + genExpr(r, depth-1) + " : " + genExpr(r, depth-1) + ")"
	case 6:
		n := 1 + r.Intn(3)
		elems := make([]string, n)
		for i := range elems {
			elems[i] = genExpr(r, depth-1)
		}
		return "[" + strings.Join(elems, ", ") + "]"
	case 7:
		return genExpr(r, depth-1) + "[" + genExpr(r, 0) + "]"
	default:
		c := genCalls[r.Intn(len(genCalls))]
		n := c.arity[r.Intn(len(c.arity))]
		args := make([]string, n)
		for i := range args {
			args[i] = genExpr(r, depth-1)
		}
		return c.name + "(" + strings.Join(args, ", ") + ")"
	}
}

// TestDifferentialBoundVsTree drives the float64 fast path: whenever a
// generated expression binds against a fixed slot layout, EvalFloats must
// agree with the tree walker over the equivalent Env.
func TestDifferentialBoundVsTree(t *testing.T) {
	r := rand.New(rand.NewSource(8052026))
	names := []string{"a", "b", "c"}
	bound := 0
	for i := 0; i < 4000; i++ {
		src := genExpr(r, 1+r.Intn(4))
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("generated expression failed to parse: %q: %v", src, err)
		}
		bp, err := p.Bind(names)
		if err != nil {
			continue // no fast path; the Env path is the behaviour
		}
		bound++
		slots := []float64{float64(r.Intn(21) - 10), r.NormFloat64() * 5, float64(r.Intn(100))}
		hist := [][]float64{[]float64{4, 5, 6}[:r.Intn(4)], nil, nil}
		diffBound(t, p, bp, slots, hist)
	}
	if bound < 100 {
		t.Fatalf("only %d/4000 generated expressions took the fast path; generator drifted", bound)
	}
}

// diffBound checks that EvalFloats over slots and hist (bound against
// a, b, c) gives the same value and error text as Eval over the
// equivalent Env. A nil history window is an empty list to Eval.
func diffBound(t *testing.T, p *Program, bp *BoundProgram, slots []float64, hist [][]float64) {
	t.Helper()
	got, gotErr := bp.EvalFloats(slots, hist)
	env := Env{"a": slots[0], "b": slots[1], "c": slots[2], "values": slots}
	for i, name := range []string{"a_hist", "b_hist", "c_hist"} {
		env[name] = []float64{}
		if hist[i] != nil {
			env[name] = hist[i]
		}
	}
	want, wantErr := refNumber(t, p, env)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: fast (%v, %v) vs tree (%v, %v)", p.Source(), got, gotErr, want, wantErr)
	}
	if gotErr == nil && !valuesEqual(got, want) {
		t.Fatalf("%q: fast %v, tree %v", p.Source(), got, want)
	}
}

// fuzzCorpus seeds the fuzz target with the shapes the unit suite
// exercises (expr_test.go) plus CSP-style sensor expressions.
var fuzzCorpus = []string{
	"1 + 2 * 3",
	"(a + b + c) / 3",
	"a - avg(a_hist)",
	"max(values) - min(values)",
	"a > 25 ? 1 : 0",
	"clamp((a + b)/2, 0, 100)",
	"true && false || a > 1",
	`"temp: " + "high"`,
	"[a, b, c][1]",
	"median(a, b, c)",
	"stddev(values) / sqrt(len(values))",
	"if(a > b, a, b)",
	"-a ^ 2 % 3",
	"pi * e + nan",
	"1/0",
	"log(0)",
	"unknown(a)",
	"len(\"abc\") + len([1,2])",
	"c2f(f2c(a))",
	"a == b != c",
}

// FuzzEvalDifferential fuzzes source text against the float64 path:
// anything that compiles and binds against a, b, c must evaluate through
// EvalFloats exactly as through Eval over the equivalent Env. Everything
// that compiles must also evaluate against a mixed-type Env without
// panicking.
func FuzzEvalDifferential(f *testing.F) {
	for _, src := range fuzzCorpus {
		f.Add(src)
	}
	mixed := Env{
		"a": 10.0, "b": true, "c": "s", "x": []Value{1.0, 2.0},
		"a_hist": []float64{1, 2, 3}, "values": []float64{10, 20, 30},
		"n": int32(7), "u": uint16(9),
	}
	names := []string{"a", "b", "c"}
	slots := []float64{10, -2.5, 0}
	hist := [][]float64{{1, 2, 3}, {4}, nil}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1024 {
			return // deep recursion guard; Compile handles depth, keep fuzz fast
		}
		p, err := Compile(src)
		if err != nil {
			return
		}
		_, _ = p.Eval(mixed)
		if bp, err := p.Bind(names); err == nil {
			diffBound(t, p, bp, slots, hist)
		}
	})
}
