package expr

import (
	"sort"
	"strconv"
	"strings"
)

// node is an AST node. String renders source that re-parses to an
// equivalent tree (used by tests as a round-trip property).
type node interface {
	String() string
}

type numberNode struct{ val float64 }

func (n numberNode) String() string { return strconv.FormatFloat(n.val, 'g', -1, 64) }

type stringNode struct{ val string }

func (n stringNode) String() string { return strconv.Quote(n.val) }

type boolNode struct{ val bool }

func (n boolNode) String() string { return strconv.FormatBool(n.val) }

type identNode struct{ name string }

func (n identNode) String() string { return n.name }

type listNode struct{ elems []node }

func (n listNode) String() string {
	parts := make([]string, len(n.elems))
	for i, e := range n.elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

type unaryNode struct {
	op tokenKind // tokMinus or tokNot
	x  node
}

func (n unaryNode) String() string {
	op := "-"
	if n.op == tokNot {
		op = "!"
	}
	return "(" + op + n.x.String() + ")"
}

type binaryNode struct {
	op   tokenKind
	l, r node
}

var binaryOpText = map[tokenKind]string{
	tokPlus: "+", tokMinus: "-", tokStar: "*", tokSlash: "/",
	tokPercent: "%", tokCaret: "^", tokLT: "<", tokLE: "<=", tokGT: ">",
	tokGE: ">=", tokEQ: "==", tokNE: "!=", tokAnd: "&&", tokOr: "||",
}

func (n binaryNode) String() string {
	return "(" + n.l.String() + " " + binaryOpText[n.op] + " " + n.r.String() + ")"
}

type condNode struct{ cond, then, els node }

func (n condNode) String() string {
	return "(" + n.cond.String() + " ? " + n.then.String() + " : " + n.els.String() + ")"
}

type callNode struct {
	name string
	args []node
}

func (n callNode) String() string {
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = a.String()
	}
	return n.name + "(" + strings.Join(parts, ", ") + ")"
}

type indexNode struct{ x, idx node }

func (n indexNode) String() string { return n.x.String() + "[" + n.idx.String() + "]" }

// collectVars accumulates free variable names (identifiers that are not
// builtin function calls).
func collectVars(n node, out map[string]bool) {
	switch t := n.(type) {
	case identNode:
		out[t.name] = true
	case listNode:
		for _, e := range t.elems {
			collectVars(e, out)
		}
	case unaryNode:
		collectVars(t.x, out)
	case binaryNode:
		collectVars(t.l, out)
		collectVars(t.r, out)
	case condNode:
		collectVars(t.cond, out)
		collectVars(t.then, out)
		collectVars(t.els, out)
	case callNode:
		for _, a := range t.args {
			collectVars(a, out)
		}
	case indexNode:
		collectVars(t.x, out)
		collectVars(t.idx, out)
	}
}

// Program is a parsed expression, safe for concurrent evaluation: Eval
// walks the tree, Bind lowers it to the float64 path (numfast.go).
type Program struct {
	source string
	root   node
	vars   []string // free identifiers minus named constants, sorted
}

// newProgram wraps a parsed tree, resolving its free variables once.
func newProgram(source string, root node) *Program {
	set := map[string]bool{}
	collectVars(root, set)
	vars := make([]string, 0, len(set))
	for name := range set {
		if _, isConst := constants[name]; !isConst {
			vars = append(vars, name)
		}
	}
	sort.Strings(vars)
	return &Program{source: source, root: root, vars: vars}
}

// Source returns the original expression text.
func (p *Program) Source() string { return p.source }

// String renders the parsed tree as re-parseable source.
func (p *Program) String() string { return p.root.String() }

// Vars returns the sorted free variable names the expression references —
// the CSP uses this to validate its child bindings ("a", "b", "c", ...).
// The set is resolved at compile time; Vars copies it so callers may keep
// or mutate the slice.
func (p *Program) Vars() []string {
	out := make([]string, len(p.vars))
	copy(out, p.vars)
	return out
}
