package expr

import (
	"fmt"
	"math"
	"strings"
)

// This file is the typed float64 path. Bind resolves a numeric-only
// program against a fixed, ordered variable list (the CSP's child
// bindings) and lowers it to closures over raw float64 slots: no Env map,
// no interface boxing, no allocation per evaluation. Expressions the fast
// path cannot express (strings, lists literals, median's sort, mixed-type
// branches) fail Bind and the caller falls back to the tree-walking Env
// evaluator, which is the semantic reference.

// numFn, boolFn and seqFn are compiled numeric-path nodes. slots carries
// the current value of each bound variable; hist carries each variable's
// recent-value window (nil when the expression does not use it).
type (
	numFn  func(slots []float64, hist [][]float64) (float64, error)
	boolFn func(slots []float64, hist [][]float64) (bool, error)
	seqFn  func(slots []float64, hist [][]float64) ([]float64, error)
)

// BoundProgram is a Program bound to a fixed variable ordering, evaluable
// against raw float64 slots without allocation. Safe for concurrent use.
type BoundProgram struct {
	prog   *Program
	nslots int
	root   numFn
}

// bindError reports why an expression could not take the numeric fast
// path; callers treat any bind failure as "use the Env path".
type bindError struct{ msg string }

func (e *bindError) Error() string { return "expr: cannot bind: " + e.msg }

func bindErrf(format string, args ...any) error {
	return &bindError{msg: fmt.Sprintf(format, args...)}
}

// Bind resolves the program's identifiers against names: names[i] maps to
// slot i, names[i]+"_hist" maps to history window i, "values" maps to the
// full slot vector, and named constants resolve to their values. Bind
// fails if the expression references anything else or uses non-numeric
// constructs; the caller should then evaluate via Eval/EvalNumber with an
// Env, which has identical semantics.
func (p *Program) Bind(names []string) (*BoundProgram, error) {
	b := &binder{names: names}
	l, err := b.lower(p.root)
	if err != nil {
		return nil, err
	}
	if l.kind != nkNum {
		return nil, bindErrf("expression yields %s, want number", l.kind)
	}
	return &BoundProgram{prog: p, nslots: len(names), root: l.num}, nil
}

// BoundPredicate is a Program bound like a BoundProgram but read as a
// predicate: a bool result decides, a number is true when non-zero.
// Safe for concurrent use.
type BoundPredicate struct {
	nslots int
	root   boolFn
}

// BindPredicate is Bind for a filter predicate: the expression may yield
// a bool as well as a number. It fails where Bind fails, and for an
// expression yielding a list; the caller then evaluates with
// Program.EvalPredicate, which has identical semantics.
func (p *Program) BindPredicate(names []string) (*BoundPredicate, error) {
	b := &binder{names: names}
	l, err := b.lower(p.root)
	if err != nil {
		return nil, err
	}
	root := l.b
	switch l.kind {
	case nkBool:
	case nkNum:
		nf := l.num
		root = func(s []float64, h [][]float64) (bool, error) {
			v, err := nf(s, h)
			return err == nil && v != 0, err
		}
	default:
		return nil, bindErrf("expression yields %s, want bool or number", l.kind)
	}
	return &BoundPredicate{nslots: len(names), root: root}, nil
}

// EvalFloats evaluates the predicate against raw slots, with hist as for
// BoundProgram.EvalFloats. It allocates nothing on the success path.
//
//lint:noalloc
func (b *BoundPredicate) EvalFloats(slots []float64, hist [][]float64) (bool, error) {
	if len(slots) < b.nslots {
		return false, evalErrf("bound program wants %d slot(s), got %d", b.nslots, len(slots))
	}
	return b.root(slots, hist)
}

// Program returns the program this binding was compiled from.
func (b *BoundProgram) Program() *Program { return b.prog }

// NumSlots returns the number of variable slots EvalFloats expects.
func (b *BoundProgram) NumSlots() int { return b.nslots }

// EvalFloats evaluates against raw slots. hist[i], when the expression
// references names[i]+"_hist", is that variable's recent-value window
// (oldest first); pass nil when no history variables are bound. EvalFloats
// allocates nothing on the success path and is safe for concurrent use.
//
//lint:noalloc
func (b *BoundProgram) EvalFloats(slots []float64, hist [][]float64) (float64, error) {
	if len(slots) < b.nslots {
		return 0, evalErrf("bound program wants %d slot(s), got %d", b.nslots, len(slots))
	}
	return b.root(slots, hist)
}

// nkind is the static type of a fast-path subtree.
type nkind int

const (
	nkNum nkind = iota
	nkBool
	nkSeq
)

func (k nkind) String() string {
	switch k {
	case nkNum:
		return "number"
	case nkBool:
		return "bool"
	default:
		return "list"
	}
}

// nlowered is one lowered fast-path node; exactly one of num/b/seq is set
// according to kind.
type nlowered struct {
	kind nkind
	num  numFn
	b    boolFn
	seq  seqFn
}

func numConst(f float64) nlowered {
	return nlowered{kind: nkNum, num: func([]float64, [][]float64) (float64, error) { return f, nil }}
}

type binder struct {
	names []string
}

func (b *binder) slotOf(name string) int {
	for i, n := range b.names {
		if n == name {
			return i
		}
	}
	return -1
}

func (b *binder) lower(n node) (nlowered, error) {
	switch t := n.(type) {
	case numberNode:
		return numConst(t.val), nil
	case boolNode:
		v := t.val
		return nlowered{kind: nkBool, b: func([]float64, [][]float64) (bool, error) { return v, nil }}, nil
	case stringNode:
		return nlowered{}, bindErrf("string literal")
	case identNode:
		return b.lowerIdent(t.name)
	case listNode:
		return nlowered{}, bindErrf("list literal")
	case unaryNode:
		return b.lowerUnary(t)
	case binaryNode:
		return b.lowerBinary(t)
	case condNode:
		return b.lowerCond(t)
	case callNode:
		return b.lowerCall(t)
	case indexNode:
		return b.lowerIndex(t)
	default:
		return nlowered{}, bindErrf("unsupported node %T", n)
	}
}

func (b *binder) lowerIdent(name string) (nlowered, error) {
	if i := b.slotOf(name); i >= 0 {
		return nlowered{kind: nkNum, num: func(slots []float64, _ [][]float64) (float64, error) {
			return slots[i], nil
		}}, nil
	}
	if base, ok := strings.CutSuffix(name, "_hist"); ok {
		if i := b.slotOf(base); i >= 0 {
			return nlowered{kind: nkSeq, seq: func(_ []float64, hist [][]float64) ([]float64, error) {
				if i < len(hist) {
					return hist[i], nil
				}
				return nil, nil
			}}, nil
		}
	}
	if name == "values" {
		return nlowered{kind: nkSeq, seq: func(slots []float64, _ [][]float64) ([]float64, error) {
			return slots, nil
		}}, nil
	}
	if c, ok := constants[name]; ok {
		if f, ok := c.(float64); ok {
			return numConst(f), nil
		}
	}
	return nlowered{}, bindErrf("unbound variable %q", name)
}

func (b *binder) lowerUnary(t unaryNode) (nlowered, error) {
	x, err := b.lower(t.x)
	if err != nil {
		return nlowered{}, err
	}
	switch {
	case t.op == tokMinus && x.kind == nkNum:
		xf := x.num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			v, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			return -v, nil
		}}, nil
	case t.op == tokNot && x.kind == nkBool:
		xf := x.b
		return nlowered{kind: nkBool, b: func(s []float64, h [][]float64) (bool, error) {
			v, err := xf(s, h)
			if err != nil {
				return false, err
			}
			return !v, nil
		}}, nil
	}
	return nlowered{}, bindErrf("unary operator on %s", x.kind)
}

func (b *binder) lowerBinary(t binaryNode) (nlowered, error) {
	l, err := b.lower(t.l)
	if err != nil {
		return nlowered{}, err
	}
	r, err := b.lower(t.r)
	if err != nil {
		return nlowered{}, err
	}
	if t.op == tokAnd || t.op == tokOr {
		if l.kind != nkBool || r.kind != nkBool {
			return nlowered{}, bindErrf("%s on %s and %s", binaryOpText[t.op], l.kind, r.kind)
		}
		lf, rf, isAnd := l.b, r.b, t.op == tokAnd
		return nlowered{kind: nkBool, b: func(s []float64, h [][]float64) (bool, error) {
			lv, err := lf(s, h)
			if err != nil {
				return false, err
			}
			if isAnd && !lv {
				return false, nil
			}
			if !isAnd && lv {
				return true, nil
			}
			return rf(s, h)
		}}, nil
	}
	if l.kind == nkBool && r.kind == nkBool {
		if t.op != tokEQ && t.op != tokNE {
			return nlowered{}, bindErrf("operator %s on booleans", binaryOpText[t.op])
		}
		lf, rf, eq := l.b, r.b, t.op == tokEQ
		return nlowered{kind: nkBool, b: func(s []float64, h [][]float64) (bool, error) {
			lv, err := lf(s, h)
			if err != nil {
				return false, err
			}
			rv, err := rf(s, h)
			if err != nil {
				return false, err
			}
			return (lv == rv) == eq, nil
		}}, nil
	}
	if l.kind != nkNum || r.kind != nkNum {
		return nlowered{}, bindErrf("operator %s on %s and %s", binaryOpText[t.op], l.kind, r.kind)
	}
	lf, rf := l.num, r.num
	switch t.op {
	case tokPlus, tokMinus, tokStar, tokSlash, tokPercent, tokCaret:
		op := t.op
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			lv, err := lf(s, h)
			if err != nil {
				return 0, err
			}
			rv, err := rf(s, h)
			if err != nil {
				return 0, err
			}
			switch op {
			case tokPlus:
				return lv + rv, nil
			case tokMinus:
				return lv - rv, nil
			case tokStar:
				return lv * rv, nil
			case tokSlash:
				if rv == 0 {
					return 0, evalErrf("division by zero")
				}
				return lv / rv, nil
			case tokPercent:
				if rv == 0 {
					return 0, evalErrf("modulo by zero")
				}
				return math.Mod(lv, rv), nil
			default: // tokCaret
				return math.Pow(lv, rv), nil
			}
		}}, nil
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		op := t.op
		return nlowered{kind: nkBool, b: func(s []float64, h [][]float64) (bool, error) {
			lv, err := lf(s, h)
			if err != nil {
				return false, err
			}
			rv, err := rf(s, h)
			if err != nil {
				return false, err
			}
			switch op {
			case tokLT:
				return lv < rv, nil
			case tokLE:
				return lv <= rv, nil
			case tokGT:
				return lv > rv, nil
			case tokGE:
				return lv >= rv, nil
			case tokEQ:
				return lv == rv, nil
			default: // tokNE
				return lv != rv, nil
			}
		}}, nil
	}
	return nlowered{}, bindErrf("operator %s", binaryOpText[t.op])
}

func (b *binder) lowerCond(t condNode) (nlowered, error) {
	c, err := b.lower(t.cond)
	if err != nil {
		return nlowered{}, err
	}
	if c.kind != nkBool {
		return nlowered{}, bindErrf("condition yields %s, want bool", c.kind)
	}
	th, err := b.lower(t.then)
	if err != nil {
		return nlowered{}, err
	}
	el, err := b.lower(t.els)
	if err != nil {
		return nlowered{}, err
	}
	if th.kind != el.kind {
		return nlowered{}, bindErrf("branches yield %s and %s", th.kind, el.kind)
	}
	cf := c.b
	switch th.kind {
	case nkNum:
		tf, ef := th.num, el.num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			cv, err := cf(s, h)
			if err != nil {
				return 0, err
			}
			if cv {
				return tf(s, h)
			}
			return ef(s, h)
		}}, nil
	case nkBool:
		tf, ef := th.b, el.b
		return nlowered{kind: nkBool, b: func(s []float64, h [][]float64) (bool, error) {
			cv, err := cf(s, h)
			if err != nil {
				return false, err
			}
			if cv {
				return tf(s, h)
			}
			return ef(s, h)
		}}, nil
	}
	return nlowered{}, bindErrf("branches yield %s", th.kind)
}

func (b *binder) lowerIndex(t indexNode) (nlowered, error) {
	x, err := b.lower(t.x)
	if err != nil {
		return nlowered{}, err
	}
	idx, err := b.lower(t.idx)
	if err != nil {
		return nlowered{}, err
	}
	if x.kind != nkSeq || idx.kind != nkNum {
		return nlowered{}, bindErrf("indexing %s with %s", x.kind, idx.kind)
	}
	xf, ifn := x.seq, idx.num
	return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
		xs, err := xf(s, h)
		if err != nil {
			return 0, err
		}
		iv, err := ifn(s, h)
		if err != nil {
			return 0, err
		}
		n := int(iv)
		if float64(n) != iv {
			return 0, evalErrf("non-integer index %v", iv)
		}
		if n < 0 || n >= len(xs) {
			return 0, evalErrf("index %d out of range (len %d)", n, len(xs))
		}
		return xs[n], nil
	}}, nil
}

// numStream is one aggregate argument: either a scalar or a sequence.
type numStream struct {
	num numFn
	seq seqFn
}

// lowerStreams lowers aggregate arguments; each must be a number or a
// sequence (a sequence argument spreads, matching numbersOf).
func (b *binder) lowerStreams(name string, args []node) ([]numStream, error) {
	out := make([]numStream, len(args))
	for i, a := range args {
		l, err := b.lower(a)
		if err != nil {
			return nil, err
		}
		switch l.kind {
		case nkNum:
			out[i] = numStream{num: l.num}
		case nkSeq:
			out[i] = numStream{seq: l.seq}
		default:
			return nil, bindErrf("%s: %s argument", name, l.kind)
		}
	}
	return out, nil
}

// walkStreams feeds every value of every argument, in order, to visit.
// It returns the total value count; errors from argument evaluation
// propagate. Zero-alloc: sequences are iterated in place.
func walkStreams(args []numStream, slots []float64, hist [][]float64, visit func(float64)) (int, error) {
	count := 0
	for _, a := range args {
		if a.num != nil {
			v, err := a.num(slots, hist)
			if err != nil {
				return 0, err
			}
			visit(v)
			count++
			continue
		}
		xs, err := a.seq(slots, hist)
		if err != nil {
			return 0, err
		}
		for _, v := range xs {
			visit(v)
		}
		count += len(xs)
	}
	return count, nil
}

func (b *binder) lowerCall(t callNode) (nlowered, error) {
	if _, err := checkArity(t.name, len(t.args)); err != nil {
		// Unknown function or bad arity: always an error at eval time;
		// let the Env path produce it.
		return nlowered{}, bindErrf("%v", err)
	}
	if f, ok := num1Fns[t.name]; ok {
		x, err := b.lower(t.args[0])
		if err != nil || x.kind != nkNum {
			return nlowered{}, bindErrf("%s: non-numeric argument", t.name)
		}
		xf := x.num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			v, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			return f(v), nil
		}}, nil
	}
	switch t.name {
	case "log":
		x, err := b.lower(t.args[0])
		if err != nil || x.kind != nkNum {
			return nlowered{}, bindErrf("log: non-numeric argument")
		}
		xf := x.num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			v, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			if v <= 0 {
				return 0, evalErrf("log: non-positive argument %v", v)
			}
			return math.Log(v), nil
		}}, nil
	case "pow":
		x, err := b.lower(t.args[0])
		if err != nil || x.kind != nkNum {
			return nlowered{}, bindErrf("pow: non-numeric argument")
		}
		y, err := b.lower(t.args[1])
		if err != nil || y.kind != nkNum {
			return nlowered{}, bindErrf("pow: non-numeric argument")
		}
		xf, yf := x.num, y.num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			xv, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			yv, err := yf(s, h)
			if err != nil {
				return 0, err
			}
			return math.Pow(xv, yv), nil
		}}, nil
	case "min", "max", "sum", "avg", "stddev", "len":
		args, err := b.lowerStreams(t.name, t.args)
		if err != nil {
			return nlowered{}, err
		}
		return b.lowerAggregate(t.name, args)
	case "clamp":
		args, err := b.lowerStreams("clamp", t.args)
		if err != nil {
			return nlowered{}, err
		}
		for _, a := range args {
			if a.num == nil {
				return nlowered{}, bindErrf("clamp: list argument")
			}
		}
		xf, lof, hif := args[0].num, args[1].num, args[2].num
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			x, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			lo, err := lof(s, h)
			if err != nil {
				return 0, err
			}
			hi, err := hif(s, h)
			if err != nil {
				return 0, err
			}
			if lo > hi {
				return 0, evalErrf("clamp: lo %v > hi %v", lo, hi)
			}
			return math.Max(lo, math.Min(hi, x)), nil
		}}, nil
	case "if":
		c, err := b.lower(t.args[0])
		if err != nil || c.kind != nkBool {
			return nlowered{}, bindErrf("if: non-bool condition")
		}
		a, err := b.lower(t.args[1])
		if err != nil || a.kind != nkNum {
			return nlowered{}, bindErrf("if: non-numeric branch")
		}
		e, err := b.lower(t.args[2])
		if err != nil || e.kind != nkNum {
			return nlowered{}, bindErrf("if: non-numeric branch")
		}
		cf, af, ef := c.b, a.num, e.num
		// The builtin form is eager: all three arguments evaluate, in
		// order, before the selection (matching the Env path).
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			cv, err := cf(s, h)
			if err != nil {
				return 0, err
			}
			av, err := af(s, h)
			if err != nil {
				return 0, err
			}
			ev, err := ef(s, h)
			if err != nil {
				return 0, err
			}
			if cv {
				return av, nil
			}
			return ev, nil
		}}, nil
	}
	// median (sorts, allocates) and anything else: Env path.
	return nlowered{}, bindErrf("builtin %q has no fast path", t.name)
}

func (b *binder) lowerAggregate(name string, args []numStream) (nlowered, error) {
	switch name {
	case "len":
		// len takes exactly one argument; on a scalar the Env path
		// errors ("no length"), so only sequences bind.
		if args[0].seq == nil {
			return nlowered{}, bindErrf("len: scalar argument")
		}
		xf := args[0].seq
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			xs, err := xf(s, h)
			if err != nil {
				return 0, err
			}
			return float64(len(xs)), nil
		}}, nil
	case "min", "max":
		useMin := name == "min"
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			m, first := 0.0, true
			n, err := walkStreams(args, s, h, func(v float64) {
				if first {
					m, first = v, false
				} else if useMin {
					m = math.Min(m, v)
				} else {
					m = math.Max(m, v)
				}
			})
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, evalErrf("%s: no values", name)
			}
			return m, nil
		}}, nil
	case "sum", "avg":
		isAvg := name == "avg"
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			total := 0.0
			n, err := walkStreams(args, s, h, func(v float64) { total += v })
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, evalErrf("%s: no values", name)
			}
			if isAvg {
				return total / float64(n), nil
			}
			return total, nil
		}}, nil
	case "stddev":
		return nlowered{kind: nkNum, num: func(s []float64, h [][]float64) (float64, error) {
			total := 0.0
			n, err := walkStreams(args, s, h, func(v float64) { total += v })
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, evalErrf("stddev: no values")
			}
			mean := total / float64(n)
			varsum := 0.0
			if _, err := walkStreams(args, s, h, func(v float64) {
				d := v - mean
				varsum += d * d
			}); err != nil {
				return 0, err
			}
			return math.Sqrt(varsum / float64(n)), nil
		}}, nil
	}
	return nlowered{}, bindErrf("aggregate %q has no fast path", name)
}
