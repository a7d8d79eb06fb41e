package expr

import (
	"math"
	"sort"
)

// builtin is a library function: validated arity, then applied to values.
type builtin struct {
	name    string
	minArgs int
	maxArgs int // -1 = variadic
	apply   func(args []Value) (Value, error)
}

// numbersOf flattens arguments into a float64 slice; a single list argument
// spreads, so avg(values) and avg(a, b, c) both work.
func numbersOf(name string, args []Value) ([]float64, error) {
	var out []float64
	var walk func(v Value) error
	walk = func(v Value) error {
		switch x := v.(type) {
		case float64:
			out = append(out, x)
			return nil
		case []Value:
			for _, e := range x {
				if err := walk(e); err != nil {
					return err
				}
			}
			return nil
		default:
			return evalErrf("%s: argument %T is not numeric", name, v)
		}
	}
	for _, a := range args {
		if err := walk(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func oneNumber(name string, args []Value) (float64, error) {
	f, ok := args[0].(float64)
	if !ok {
		return 0, evalErrf("%s: argument is %T, want number", name, args[0])
	}
	return f, nil
}

func numericFn(name string, f func(float64) float64) builtin {
	return builtin{name: name, minArgs: 1, maxArgs: 1, apply: func(args []Value) (Value, error) {
		x, err := oneNumber("fn", args)
		if err != nil {
			return nil, err
		}
		return f(x), nil
	}}
}

func aggregateFn(name string, f func([]float64) (float64, error)) builtin {
	return builtin{name: name, minArgs: 1, maxArgs: -1, apply: func(args []Value) (Value, error) {
		xs, err := numbersOf(name, args)
		if err != nil {
			return nil, err
		}
		if len(xs) == 0 {
			return nil, evalErrf("%s: no values", name)
		}
		return f(xs)
	}}
}

// num1Fns are the single-argument numeric builtins, shared between the
// generic table and the typed float64 fast path (numfast.go).
var num1Fns = map[string]func(float64) float64{
	"abs":   math.Abs,
	"sqrt":  math.Sqrt,
	"floor": math.Floor,
	"ceil":  math.Ceil,
	"round": math.Round,
	"sin":   math.Sin,
	"cos":   math.Cos,
	"tan":   math.Tan,
	"exp":   math.Exp,
	// c2f / f2c — unit conversions common in the paper's temperature
	// aggregation scenario.
	"c2f": func(c float64) float64 { return c*9/5 + 32 },
	"f2c": func(f float64) float64 { return (f - 32) * 5 / 9 },
}

var builtinTable = []builtin{
	numericFn("abs", num1Fns["abs"]),
	numericFn("sqrt", num1Fns["sqrt"]),
	numericFn("floor", num1Fns["floor"]),
	numericFn("ceil", num1Fns["ceil"]),
	numericFn("round", num1Fns["round"]),
	numericFn("sin", num1Fns["sin"]),
	numericFn("cos", num1Fns["cos"]),
	numericFn("tan", num1Fns["tan"]),
	numericFn("exp", num1Fns["exp"]),
	{name: "log", minArgs: 1, maxArgs: 1, apply: func(args []Value) (Value, error) {
		x, err := oneNumber("log", args)
		if err != nil {
			return nil, err
		}
		if x <= 0 {
			return nil, evalErrf("log: non-positive argument %v", x)
		}
		return math.Log(x), nil
	}},
	{name: "pow", minArgs: 2, maxArgs: 2, apply: func(args []Value) (Value, error) {
		x, xok := args[0].(float64)
		y, yok := args[1].(float64)
		if !xok || !yok {
			return nil, evalErrf("pow: want two numbers")
		}
		return math.Pow(x, y), nil
	}},
	aggregateFn("min", func(xs []float64) (float64, error) {
		m := xs[0]
		for _, x := range xs[1:] {
			m = math.Min(m, x)
		}
		return m, nil
	}),
	aggregateFn("max", func(xs []float64) (float64, error) {
		m := xs[0]
		for _, x := range xs[1:] {
			m = math.Max(m, x)
		}
		return m, nil
	}),
	aggregateFn("sum", func(xs []float64) (float64, error) {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s, nil
	}),
	aggregateFn("avg", func(xs []float64) (float64, error) {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs)), nil
	}),
	aggregateFn("median", func(xs []float64) (float64, error) {
		s := append([]float64{}, xs...)
		sort.Float64s(s)
		n := len(s)
		if n%2 == 1 {
			return s[n/2], nil
		}
		return (s[n/2-1] + s[n/2]) / 2, nil
	}),
	aggregateFn("stddev", func(xs []float64) (float64, error) {
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		varsum := 0.0
		for _, x := range xs {
			d := x - mean
			varsum += d * d
		}
		return math.Sqrt(varsum / float64(len(xs))), nil
	}),
	{name: "clamp", minArgs: 3, maxArgs: 3, apply: func(args []Value) (Value, error) {
		xs, err := numbersOf("clamp", args)
		if err != nil {
			return nil, err
		}
		if len(xs) != 3 {
			return nil, evalErrf("clamp: want (x, lo, hi)")
		}
		x, lo, hi := xs[0], xs[1], xs[2]
		if lo > hi {
			return nil, evalErrf("clamp: lo %v > hi %v", lo, hi)
		}
		return math.Max(lo, math.Min(hi, x)), nil
	}},
	{name: "len", minArgs: 1, maxArgs: 1, apply: func(args []Value) (Value, error) {
		switch x := args[0].(type) {
		case []Value:
			return float64(len(x)), nil
		case string:
			return float64(len(x)), nil
		default:
			return nil, evalErrf("len: argument %T has no length", args[0])
		}
	}},
	// if(cond, a, b) — eager functional form of ?: for readability.
	{name: "if", minArgs: 3, maxArgs: 3, apply: func(args []Value) (Value, error) {
		c, ok := args[0].(bool)
		if !ok {
			return nil, evalErrf("if: condition is %T, want bool", args[0])
		}
		if c {
			return args[1], nil
		}
		return args[2], nil
	}},
	numericFn("c2f", num1Fns["c2f"]),
	numericFn("f2c", num1Fns["f2c"]),
}

// builtinIndex maps names to builtinTable slots.
var builtinIndex = func() map[string]int {
	m := make(map[string]int, len(builtinTable))
	for i, b := range builtinTable {
		m[b.name] = i
	}
	return m
}()

// Builtins lists the available function names, sorted (documentation and
// browser help).
func Builtins() []string {
	out := make([]string, 0, len(builtinTable))
	for _, b := range builtinTable {
		out = append(out, b.name)
	}
	sort.Strings(out)
	return out
}

// checkArity resolves a call site's builtin and validates its argument
// count; Bind runs the same check so both paths reject a call alike.
func checkArity(name string, nargs int) (int, error) {
	idx, ok := builtinIndex[name]
	if !ok {
		return 0, evalErrf("unknown function %q", name)
	}
	fn := builtinTable[idx]
	if nargs < fn.minArgs {
		return 0, evalErrf("%s: want at least %d argument(s), got %d", name, fn.minArgs, nargs)
	}
	if fn.maxArgs >= 0 && nargs > fn.maxArgs {
		return 0, evalErrf("%s: want at most %d argument(s), got %d", name, fn.maxArgs, nargs)
	}
	return idx, nil
}

func evalCall(t callNode, env Env) (Value, error) {
	idx, err := checkArity(t.name, len(t.args))
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(t.args))
	for i, a := range t.args {
		v, err := eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return builtinTable[idx].apply(args)
}
