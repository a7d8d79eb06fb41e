package lint

// The interprocedural layer: a whole-program call graph over the loaded
// packages with per-function summaries computed bottom-up over strongly
// connected components. An intraprocedural analyzer (epochguard) goes
// blind the moment a hazard crosses a function call; the graph is what
// lets deepblock, lockorder and noalloc follow it.
//
// Resolution rules, in order of precision:
//
//   - Direct calls and method calls resolve through go/types. Because the
//     loader type-checks two views of every package (import view and
//     analysis view), *types.Func identities differ between universes, so
//     nodes are keyed by FullName strings, which agree across views.
//   - Interface dispatch is conservatively widened to every in-program
//     named type whose method set structurally satisfies the interface
//     (name + receiver-less signature string), so a call through
//     space.Journal reaches both the WAL-backed journal and the
//     replicating shippingJournal.
//   - Calls through function values first consult a small flow index
//     (values assigned to struct fields, package vars, single-hop setter
//     params, and simple locals), and fall back to widening over every
//     address-taken function, bound method and function literal with an
//     identical signature.
//
// Summaries record, per function: whether it can reach an RPC boundary, an
// fsync, or a channel park (with a witness chain for -why), which global
// mutex classes it transitively acquires, and whether it may allocate.
// `go` statements launch concurrently, so they propagate no blocking or
// lock-acquisition facts to the caller (the goroutine has its own stack of
// held locks) — but the statement itself allocates.
//
// Annotations understood here:
//
//	//lint:blockok <reason>   on a func or interface-method declaration:
//	                          blocking inside is designed in (e.g. the
//	                          journal-before-ack contract); not propagated
//	                          to callers, not reported inside.
//	//lint:noalloc            the function must be transitively
//	                          allocation-free (verified by noalloc).
//	//lint:allocok <reason>   exempts one line from the allocation check.
//	//lint:lockorder allow A->B <reason>  blesses one lock-order edge.
import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"strings"
)

// lockClass identifies a mutex for held-set tracking. Global classes
// (struct fields and package-level vars, e.g. "space.Space.mu") take part
// in the lock-order graph; locals only contribute held depth.
type lockClass struct {
	id     string
	global bool
}

// callSite is one call expression inside a function, with the lock context
// it executes under and its resolved in-program targets.
type callSite struct {
	pos      token.Pos
	name     string // callee display name ("srpc.Ping", "space.Journal.Append")
	targets  []*funcNode
	held     []lockClass // locks held at the site, outermost first
	goStmt   bool        // launched with `go`: runs on another goroutine
	deferred bool        // runs at function return (held reflects the return state)
	rpc      bool        // callee is in an internal/srpc or internal/remote package
	fsync    bool        // callee is (*os.File).Sync
	park     bool        // callee is a known parking stdlib call
	blessed  bool        // dispatched through a //lint:blockok method
	allocok  bool        // an //lint:allocok directive covers this line
}

// leafFact is one position-anchored intraprocedural fact (a channel
// operation that can park, or an allocation site).
type leafFact struct {
	pos  token.Pos
	desc string
	held []lockClass
}

// lockAcq is one direct mutex acquisition and the locks already held.
type lockAcq struct {
	class lockClass
	pos   token.Pos
	held  []lockClass
}

// blockWitness is one step of a summary's evidence chain: the position and
// description inside the owning function, and the callee (nil for a leaf)
// whose own summary continues the chain.
type blockWitness struct {
	pos  token.Pos
	desc string
	next *funcNode
}

// summary is the bottom-up result for one function.
type summary struct {
	rpc      *blockWitness
	fsync    *blockWitness
	park     *blockWitness
	alloc    *blockWitness
	acquires map[string]*blockWitness // global lock class id -> evidence
}

// funcNode is one function in the graph: a declared function or method, or
// a function literal.
type funcNode struct {
	id   int
	pkg  *Package
	name string // "space.(*Space).Write", "expr.compileNum$1"
	pos  token.Pos
	body *ast.BlockStmt
	info *types.Info
	sig  *types.Signature

	noalloc bool
	blockok bool

	// callOnly caches, per param index, whether the (function-typed)
	// parameter is only ever invoked, never stored or passed on — the
	// precondition for noalloc's non-escaping-literal rule.
	callOnly map[int]bool

	calls    []*callSite
	parks    []leafFact
	allocs   []leafFact
	acquires []lockAcq

	sum summary

	// scc bookkeeping (Tarjan)
	index, lowlink int
	onStack        bool
}

// callGraph is the shared whole-program state, built once per analyzed
// package set and cached across the analyzers that consume it.
type callGraph struct {
	fset  *token.FileSet
	nodes []*funcNode
	byKey map[string]*funcNode // types.Func FullName -> node

	// addrTaken maps receiver-less signature strings to every function,
	// bound method or literal used as a value with that signature.
	addrTaken map[string][]*funcNode

	// flow maps storage locations ("f:pkg.Type.field", "v:pkg.name",
	// "l:pos" for params and locals) to the func values observed flowing
	// into them; copies are load-store edges resolved by finishFlow.
	flow   map[string]*flowSet
	copies []copyEdge

	// blessedIface holds FullNames of interface methods declared blockok.
	blessedIface map[string]bool

	// allocokLines marks "file:line" cells covered by //lint:allocok.
	allocokLines map[string]bool

	// lockAllows holds "A->B" edges blessed by //lint:lockorder allow.
	lockAllows map[string]bool

	// namedTypes lists every named (non-alias, non-interface) type in the
	// analyzed program, in deterministic order, for interface widening.
	namedTypes []*types.Named

	// methodSets caches name->method for each named type; ifaceImpls
	// caches widening results per interface shape.
	methodSets map[*types.Named]map[string]*types.Func
	ifaceImpls map[string]map[string][]*funcNode
}

type flowSet struct {
	nodes   []*funcNode
	unknown bool
}

// cgCache memoizes the graph per loaded package set; the three
// interprocedural analyzers run back-to-back over the same Pkgs slice.
var cgCache struct {
	first *Package
	n     int
	g     *callGraph
}

// programGraph returns the (possibly cached) call graph for pp.
func programGraph(pp *ProgramPass) *callGraph {
	if len(pp.Pkgs) == 0 {
		return &callGraph{fset: pp.Fset}
	}
	if cgCache.g != nil && cgCache.first == pp.Pkgs[0] && cgCache.n == len(pp.Pkgs) {
		return cgCache.g
	}
	g := buildCallGraph(pp.Fset, pp.Pkgs)
	cgCache.first, cgCache.n, cgCache.g = pp.Pkgs[0], len(pp.Pkgs), g
	return g
}

// buildCallGraph constructs the graph and computes summaries. Only
// non-test files contribute nodes: the invariants bind library code, and
// test packages are type-checked in separate universes.
func buildCallGraph(fset *token.FileSet, pkgs []*Package) *callGraph {
	g := &callGraph{
		fset:         fset,
		byKey:        make(map[string]*funcNode),
		addrTaken:    make(map[string][]*funcNode),
		flow:         make(map[string]*flowSet),
		blessedIface: make(map[string]bool),
		allocokLines: make(map[string]bool),
		lockAllows:   make(map[string]bool),
		methodSets:   make(map[*types.Named]map[string]*types.Func),
		ifaceImpls:   make(map[string]map[string][]*funcNode),
	}
	for _, pkg := range pkgs {
		g.collectPackage(pkg)
	}
	for _, pkg := range pkgs {
		g.collectValuesAndFlow(pkg)
	}
	g.finishFlow()
	for _, n := range g.nodes {
		if n.body != nil {
			g.scanBody(n)
		}
	}
	g.computeSummaries()
	return g
}

// --- phase A: nodes, annotations, named types ---

// collectPackage creates nodes for every function declaration and literal
// in pkg's non-test files, records annotations, and indexes named types.
func (g *callGraph) collectPackage(pkg *Package) {
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f) {
			continue
		}
		g.collectComments(pkg, f)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				g.collectFuncDecl(pkg, d)
			case *ast.GenDecl:
				g.collectIfaceAnnotations(pkg, d)
			}
		}
	}
	// Named types for interface widening, in scope order (already sorted).
	if pkg.Types == nil || strings.HasSuffix(pkg.Types.Name(), "_test") {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		g.namedTypes = append(g.namedTypes, named)
	}
}

// collectComments records //lint:allocok lines and //lint:lockorder allow
// directives. Like lint:ignore, a reason is mandatory; a directive covers
// its own line and the line below.
func (g *callGraph) collectComments(pkg *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "lint:allocok"); ok {
				if strings.TrimSpace(rest) == "" {
					continue // a reason is mandatory
				}
				pos := g.fset.Position(c.Pos())
				g.allocokLines[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
				g.allocokLines[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
			}
			if rest, ok := strings.CutPrefix(text, "lint:lockorder allow "); ok {
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // a reason is mandatory
				}
				g.lockAllows[fields[0]] = true
			}
		}
	}
}

// docHasDirective reports whether a declaration doc comment carries the
// given lint directive, returning its trailing text.
func docHasDirective(doc *ast.CommentGroup, directive string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, directive); ok {
			if rest == "" || strings.HasPrefix(rest, " ") {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// collectFuncDecl registers the declared function and every literal nested
// inside it as graph nodes.
func (g *callGraph) collectFuncDecl(pkg *Package, d *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		return
	}
	n := &funcNode{
		id:   len(g.nodes),
		pkg:  pkg,
		name: displayName(obj),
		pos:  d.Name.Pos(),
		body: d.Body,
		info: pkg.Info,
		sig:  obj.Type().(*types.Signature),
	}
	if _, ok := docHasDirective(d.Doc, "lint:noalloc"); ok {
		n.noalloc = true
	}
	if reason, ok := docHasDirective(d.Doc, "lint:blockok"); ok && reason != "" {
		n.blockok = true
	}
	g.nodes = append(g.nodes, n)
	g.byKey[obj.FullName()] = n

	// Nested literals, in source order. Blessings on the enclosing
	// declaration cover its literals: a blockok function's closures are
	// part of the same designed-in critical section.
	if d.Body == nil {
		return
	}
	lit := 0
	ast.Inspect(d.Body, func(node ast.Node) bool {
		fl, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		lit++
		litSig, _ := pkg.Info.Types[fl].Type.(*types.Signature)
		ln := &funcNode{
			id:      len(g.nodes),
			pkg:     pkg,
			name:    fmt.Sprintf("%s$%d", n.name, lit),
			pos:     fl.Pos(),
			body:    fl.Body,
			info:    pkg.Info,
			sig:     litSig,
			blockok: n.blockok,
		}
		g.nodes = append(g.nodes, ln)
		g.byKey[litKey(fl)] = ln
		return true
	})
}

// litKey keys a function literal by its position (unique in the shared fset).
func litKey(fl *ast.FuncLit) string { return fmt.Sprintf("lit@%d", fl.Pos()) }

// collectIfaceAnnotations records //lint:blockok on interface method
// declarations, which blesses every dynamic dispatch through that method.
func (g *callGraph) collectIfaceAnnotations(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		for _, m := range it.Methods.List {
			if len(m.Names) == 0 {
				continue
			}
			if reason, ok := docHasDirective(m.Doc, "lint:blockok"); !ok || reason == "" {
				continue
			}
			if fn, ok := pkg.Info.Defs[m.Names[0]].(*types.Func); ok {
				g.blessedIface[fn.FullName()] = true
			}
		}
	}
}

// displayName renders a compact human name: pkg.(recv).Func.
func displayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = shortPath(fn.Pkg().Path()) + "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}

func shortPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// --- phase B: address-taken values and the flow index ---

// collectValuesAndFlow walks every non-test file recording (a) functions,
// bound methods and literals used as values (for signature widening), (b)
// assignments of func values into fields, package vars, setter params and
// simple locals (for precise indirect-call resolution), and (c) per-param
// "call-only" facts used by noalloc's non-escaping-literal rule.
func (g *callGraph) collectValuesAndFlow(pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f) {
			continue
		}
		// Every expression appearing as a call's Fun: uses there are
		// invocations, not values.
		callFuns := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callFuns[unparen(call.Fun)] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				g.recordFuncValue(info, v, callFuns)
			case *ast.SelectorExpr:
				g.recordFuncValue(info, v, callFuns)
				return true
			case *ast.FuncLit:
				if !callFuns[ast.Expr(v)] {
					if node := g.byKey[litKey(v)]; node != nil {
						g.addAddrTaken(info, v, node)
					}
				}
			case *ast.AssignStmt:
				for i := range v.Lhs {
					if i < len(v.Rhs) {
						g.recordFlow(info, pkg, v.Lhs[i], v.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range v.Names {
					if i < len(v.Values) {
						g.recordFlow(info, pkg, name, v.Values[i])
					}
				}
			case *ast.CompositeLit:
				g.recordCompositeFlow(info, v)
			case *ast.CallExpr:
				g.recordArgFlow(info, v)
			}
			return true
		})
	}
}

// recordFuncValue indexes an identifier or selector that names a function
// but is not being called: it is a func value with the expression's
// signature type.
func (g *callGraph) recordFuncValue(info *types.Info, expr ast.Expr, callFuns map[ast.Expr]bool) {
	if callFuns[expr] {
		return
	}
	var obj types.Object
	switch v := expr.(type) {
	case *ast.Ident:
		obj = info.Uses[v]
	case *ast.SelectorExpr:
		obj = info.Uses[v.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	node := g.byKey[fn.FullName()]
	if node == nil {
		return
	}
	g.addAddrTaken(info, expr, node)
	// A function whose address escapes can be invoked with arguments the
	// flow index never saw; its params must fall back to widening.
	if sig, ok := fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if _, isFunc := p.Type().(*types.Signature); isFunc {
				g.flowInto(fmt.Sprintf("l:%d", p.Pos()), nil, true)
			}
		}
	}
}

func (g *callGraph) addAddrTaken(info *types.Info, expr ast.Expr, node *funcNode) {
	tv, ok := info.Types[expr]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	for _, existing := range g.addrTaken[key] {
		if existing == node {
			return
		}
	}
	g.addrTaken[key] = append(g.addrTaken[key], node)
}

// sigKey renders a receiver-less signature with package-path qualifiers,
// stable across the loader's two type-check universes.
func sigKey(sig *types.Signature) string {
	plain := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(plain, func(p *types.Package) string { return p.Path() })
}

// locOf maps an assignable expression to a flow-location key, or "".
func locOf(info *types.Info, pkg *Package, expr ast.Expr) string {
	switch v := unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Defs[v]
		if obj == nil {
			obj = info.Uses[v]
		}
		vr, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if vr.Parent() != nil && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			return "v:" + vr.Pkg().Path() + "." + vr.Name()
		}
		return fmt.Sprintf("l:%d", vr.Pos())
	case *ast.SelectorExpr:
		sel := info.Selections[v]
		if sel == nil || sel.Kind() != types.FieldVal {
			return ""
		}
		return fieldLoc(sel.Recv(), v.Sel.Name)
	}
	return ""
}

// fieldLoc keys a struct field by its defining named type and field name.
func fieldLoc(recv types.Type, field string) string {
	t := recv
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return "f:" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// resolveFuncValue resolves an expression to the func nodes it denotes:
// a literal, a named function/method, or a load from a tracked location.
func (g *callGraph) resolveFuncValue(info *types.Info, pkg *Package, expr ast.Expr) ([]*funcNode, bool) {
	switch v := unparen(expr).(type) {
	case *ast.FuncLit:
		if n := g.byKey[litKey(v)]; n != nil {
			return []*funcNode{n}, true
		}
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			if n := g.byKey[fn.FullName()]; n != nil {
				return []*funcNode{n}, true
			}
			return nil, false // external function value
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			if n := g.byKey[fn.FullName()]; n != nil {
				return []*funcNode{n}, true
			}
			return nil, false
		}
	}
	return nil, false
}

// recordFlow records rhs flowing into the location named by lhs, when lhs
// has function type.
func (g *callGraph) recordFlow(info *types.Info, pkg *Package, lhs, rhs ast.Expr) {
	tv, ok := info.Types[unparen(rhs)]
	if !ok {
		if id, isIdent := lhs.(*ast.Ident); isIdent {
			if def := info.Defs[id]; def != nil {
				tv, ok = types.TypeAndValue{Type: def.Type()}, true
			}
		}
		if !ok {
			return
		}
	}
	if _, isFunc := tv.Type.(*types.Signature); !isFunc {
		return
	}
	loc := locOf(info, pkg, lhs)
	if loc == "" {
		return
	}
	nodes, known := g.resolveFuncValue(info, pkg, rhs)
	if !known {
		// A load from another tracked location is a copy, not an unknown:
		// `s.guard = g` adopts whatever flowed into the param g.
		if src := locOf(info, pkg, rhs); src != "" {
			g.flowInto(loc, nil, false)
			g.copies = append(g.copies, copyEdge{from: src, to: loc})
			return
		}
	}
	g.flowInto(loc, nodes, !known)
}

// recordCompositeFlow records func values assigned through struct literals.
func (g *callGraph) recordCompositeFlow(info *types.Info, lit *ast.CompositeLit) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var fieldName string
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				fieldName = id.Name
			}
			value = kv.Value
		} else if i < st.NumFields() {
			fieldName = st.Field(i).Name()
		}
		if fieldName == "" {
			continue
		}
		vt, ok := info.Types[unparen(value)]
		if !ok {
			continue
		}
		if _, isFunc := vt.Type.(*types.Signature); !isFunc {
			continue
		}
		loc := fieldLoc(named, fieldName)
		if loc == "" {
			continue
		}
		nodes, known := g.resolveFuncValue(info, nil, value)
		g.flowInto(loc, nodes, !known)
	}
}

// recordArgFlow records func-typed arguments flowing into the params of a
// directly-resolved in-program callee (the single-hop setter pattern:
// SetGuard(n.guard) makes n.guard a target of calls through the field the
// setter stores into, via the param location).
func (g *callGraph) recordArgFlow(info *types.Info, call *ast.CallExpr) {
	fn := calleeOf(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 || pi >= sig.Params().Len() {
			continue
		}
		p := sig.Params().At(pi)
		if _, isFunc := p.Type().(*types.Signature); !isFunc {
			continue
		}
		nodes, known := g.resolveFuncValue(info, nil, arg)
		g.flowInto(fmt.Sprintf("l:%d", p.Pos()), nodes, !known)
	}
}

func (g *callGraph) flowInto(loc string, nodes []*funcNode, unknown bool) {
	fs := g.flow[loc]
	if fs == nil {
		fs = &flowSet{}
		g.flow[loc] = fs
	}
	if unknown {
		fs.unknown = true
	}
	for _, n := range nodes {
		dup := false
		for _, e := range fs.nodes {
			if e == n {
				dup = true
			}
		}
		if !dup {
			fs.nodes = append(fs.nodes, n)
		}
	}
}

// finishFlow propagates flow sets along copy edges (`x.f = p` with p a
// param makes the field adopt everything observed flowing into the param)
// until a fixpoint, so the single-hop setter pattern resolves precisely.
func (g *callGraph) finishFlow() {
	for changed := true; changed; {
		changed = false
		for _, e := range g.copies {
			src, dst := g.flow[e.from], g.flow[e.to]
			if src == nil || dst == nil {
				continue
			}
			if src.unknown && !dst.unknown {
				dst.unknown = true
				changed = true
			}
			for _, n := range src.nodes {
				dup := false
				for _, have := range dst.nodes {
					if have == n {
						dup = true
					}
				}
				if !dup {
					dst.nodes = append(dst.nodes, n)
					changed = true
				}
			}
		}
	}
}

type copyEdge struct{ from, to string }
