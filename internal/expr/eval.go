package expr

import (
	"math"
)

// Value is a runtime value: float64, bool, string or []Value.
type Value any

// Env binds free variable names to values for one evaluation.
type Env map[string]Value

// constants are identifiers with fixed values, usable without binding.
var constants = map[string]Value{
	"pi":  math.Pi,
	"e":   math.E,
	"nan": math.NaN(),
	"inf": math.Inf(1),
}

// Eval compiles and evaluates source against env in one step. Prefer
// Compile + Program.Eval when the same expression runs repeatedly.
func Eval(source string, env Env) (Value, error) {
	p, err := Compile(source)
	if err != nil {
		return nil, err
	}
	return p.Eval(env)
}

// Eval evaluates the program against the environment by walking its
// parse tree. It is the semantic reference: the float64 path (Bind) must
// agree with it on value and error text for every expression it binds.
func (p *Program) Eval(env Env) (Value, error) {
	return eval(p.root, env)
}

// EvalNumber evaluates and coerces the result to float64, the common case
// for sensor expressions.
func (p *Program) EvalNumber(env Env) (float64, error) {
	v, err := p.Eval(env)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, evalErrf("expression yielded %T, want number", v)
	}
	return f, nil
}

// EvalPredicate evaluates a filter predicate: a bool result decides, a
// number is true when non-zero, and any other result is an error. It is
// the reference BoundPredicate must agree with.
func (p *Program) EvalPredicate(env Env) (bool, error) {
	v, err := p.Eval(env)
	if err != nil {
		return false, err
	}
	switch t := v.(type) {
	case bool:
		return t, nil
	case float64:
		return t != 0, nil
	}
	return false, evalErrf("expression yielded %T, want bool or number", v)
}

func eval(n node, env Env) (Value, error) {
	switch t := n.(type) {
	case numberNode:
		return t.val, nil
	case stringNode:
		return t.val, nil
	case boolNode:
		return t.val, nil
	case identNode:
		if v, ok := env[t.name]; ok {
			return normalizeValue(v)
		}
		if v, ok := constants[t.name]; ok {
			return v, nil
		}
		return nil, evalErrf("unbound variable %q", t.name)
	case listNode:
		out := make([]Value, len(t.elems))
		for i, e := range t.elems {
			v, err := eval(e, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case unaryNode:
		v, err := eval(t.x, env)
		if err != nil {
			return nil, err
		}
		return applyUnary(t.op, v)
	case binaryNode:
		return evalBinary(t, env)
	case condNode:
		c, err := eval(t.cond, env)
		if err != nil {
			return nil, err
		}
		b, ok := c.(bool)
		if !ok {
			return nil, evalErrf("condition yielded %T, want bool", c)
		}
		if b {
			return eval(t.then, env)
		}
		return eval(t.els, env)
	case callNode:
		return evalCall(t, env)
	case indexNode:
		x, err := eval(t.x, env)
		if err != nil {
			return nil, err
		}
		idx, err := eval(t.idx, env)
		if err != nil {
			return nil, err
		}
		return applyIndex(x, idx)
	default:
		return nil, evalErrf("internal: unknown node %T", n)
	}
}

// normalizeValue coerces caller-supplied numeric kinds to float64 so an Env
// populated with ints behaves naturally.
func normalizeValue(v Value) (Value, error) {
	switch x := v.(type) {
	case float64, bool, string, []Value:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int16:
		return float64(x), nil
	case int32:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case uint:
		return float64(x), nil
	case uint16:
		return float64(x), nil
	case uint32:
		return float64(x), nil
	case uint64:
		return float64(x), nil
	case []float64:
		out := make([]Value, len(x))
		for i, f := range x {
			out[i] = f
		}
		return out, nil
	case []float32:
		out := make([]Value, len(x))
		for i, f := range x {
			out[i] = float64(f)
		}
		return out, nil
	case []int:
		out := make([]Value, len(x))
		for i, n := range x {
			out[i] = float64(n)
		}
		return out, nil
	default:
		return nil, evalErrf("unsupported value type %T", v)
	}
}

// applyUnary applies a unary operator to an evaluated operand.
func applyUnary(op tokenKind, v Value) (Value, error) {
	switch op {
	case tokMinus:
		f, ok := v.(float64)
		if !ok {
			return nil, evalErrf("unary '-' on %T", v)
		}
		return -f, nil
	case tokNot:
		b, ok := v.(bool)
		if !ok {
			return nil, evalErrf("unary '!' on %T", v)
		}
		return !b, nil
	}
	return nil, evalErrf("internal: bad unary op")
}

func evalBinary(t binaryNode, env Env) (Value, error) {
	// Short-circuit logical operators evaluate lazily.
	if t.op == tokAnd || t.op == tokOr {
		l, err := eval(t.l, env)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, evalErrf("%s on %T", binaryOpText[t.op], l)
		}
		if t.op == tokAnd && !lb {
			return false, nil
		}
		if t.op == tokOr && lb {
			return true, nil
		}
		r, err := eval(t.r, env)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, evalErrf("%s on %T", binaryOpText[t.op], r)
		}
		return rb, nil
	}

	l, err := eval(t.l, env)
	if err != nil {
		return nil, err
	}
	r, err := eval(t.r, env)
	if err != nil {
		return nil, err
	}
	return applyBinary(t.op, l, r)
}

// applyBinary applies a strict (non-short-circuit) binary operator to two
// evaluated operands.
func applyBinary(op tokenKind, l, r Value) (Value, error) {
	// String concatenation and comparison.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case tokPlus:
				return ls + rs, nil
			case tokEQ:
				return ls == rs, nil
			case tokNE:
				return ls != rs, nil
			case tokLT:
				return ls < rs, nil
			case tokLE:
				return ls <= rs, nil
			case tokGT:
				return ls > rs, nil
			case tokGE:
				return ls >= rs, nil
			}
			return nil, evalErrf("operator %s not defined on strings", binaryOpText[op])
		}
	}
	// Boolean equality.
	if lb, ok := l.(bool); ok {
		if rb, ok := r.(bool); ok {
			switch op {
			case tokEQ:
				return lb == rb, nil
			case tokNE:
				return lb != rb, nil
			}
			return nil, evalErrf("operator %s not defined on booleans", binaryOpText[op])
		}
	}

	lf, lok := l.(float64)
	rf, rok := r.(float64)
	if !lok || !rok {
		return nil, evalErrf("operator %s on %T and %T", binaryOpText[op], l, r)
	}
	switch op {
	case tokPlus:
		return lf + rf, nil
	case tokMinus:
		return lf - rf, nil
	case tokStar:
		return lf * rf, nil
	case tokSlash:
		if rf == 0 {
			return nil, evalErrf("division by zero")
		}
		return lf / rf, nil
	case tokPercent:
		if rf == 0 {
			return nil, evalErrf("modulo by zero")
		}
		return math.Mod(lf, rf), nil
	case tokCaret:
		return math.Pow(lf, rf), nil
	case tokLT:
		return lf < rf, nil
	case tokLE:
		return lf <= rf, nil
	case tokGT:
		return lf > rf, nil
	case tokGE:
		return lf >= rf, nil
	case tokEQ:
		return lf == rf, nil
	case tokNE:
		return lf != rf, nil
	}
	return nil, evalErrf("internal: bad binary op")
}

// applyIndex indexes an evaluated list with an evaluated subscript.
func applyIndex(x, idx Value) (Value, error) {
	i, ok := idx.(float64)
	if !ok {
		return nil, evalErrf("index is %T, want number", idx)
	}
	list, ok := x.([]Value)
	if !ok {
		return nil, evalErrf("indexing %T, want list", x)
	}
	n := int(i)
	if float64(n) != i {
		return nil, evalErrf("non-integer index %v", i)
	}
	if n < 0 || n >= len(list) {
		return nil, evalErrf("index %d out of range (len %d)", n, len(list))
	}
	return list[n], nil
}
