package lint

// The intraprocedural half of the call-graph build: one source-order scan
// per function body collecting call sites (with the locks held at each),
// channel-park facts, allocation facts, and mutex acquisitions. The held
// tracking follows lock *identities* in source order and replays deferred
// calls LIFO against the lock state at return, which is when they
// actually run.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// heldLock is one entry of the scanner's lock stack; pinned means a
// deferred unlock holds it to function end.
type heldLock struct {
	class  lockClass
	pinned bool
}

// deferEntry is one deferred statement, replayed in reverse at scan end.
type deferEntry struct {
	unlock *lockClass
	lock   *lockClass
	call   *ast.CallExpr
}

type posRange struct{ lo, hi token.Pos }

type bodyScanner struct {
	g *callGraph
	n *funcNode

	held     []heldLock
	deferred []deferEntry

	// skip marks channel operations already accounted for by an enclosing
	// select, and composite literals claimed by an enclosing &.
	skip map[ast.Node]bool
	// directLits marks literals that never materialize as escaping
	// closures: direct-called, deferred, go'd, or passed to a call-only
	// param of a statically-resolved callee.
	directLits map[*ast.FuncLit]bool
	// exempt holds cold-path ranges (error-position return results, panic
	// arguments) where allocation is acceptable by convention.
	exempt []posRange
	// callFuns marks expressions in call position within this body.
	callFuns map[ast.Expr]bool
}

// scanBody populates n's call sites, facts and acquisitions.
func (g *callGraph) scanBody(n *funcNode) {
	s := &bodyScanner{
		g:          g,
		n:          n,
		skip:       make(map[ast.Node]bool),
		directLits: make(map[*ast.FuncLit]bool),
		callFuns:   make(map[ast.Expr]bool),
	}
	ast.Inspect(n.body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			s.callFuns[unparen(call.Fun)] = true
		}
		return true
	})
	s.walk(n.body)
	s.replayDefers()
}

// walk dispatches one subtree through the scanner.
func (s *bodyScanner) walk(root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, s.visit)
}

func (s *bodyScanner) visit(node ast.Node) bool {
	switch v := node.(type) {
	case *ast.FuncLit:
		// Its body is a separate node. Creating the value allocates a
		// closure unless the literal never escapes.
		if !s.callFuns[ast.Expr(v)] && !s.directLits[v] {
			s.alloc(v.Pos(), "function literal allocates a closure")
		}
		return false

	case *ast.DeferStmt:
		s.scanDefer(v)
		return false

	case *ast.GoStmt:
		s.scanGo(v)
		return false

	case *ast.SelectStmt:
		s.scanSelect(v)
		return true

	case *ast.SendStmt:
		if !s.skip[ast.Node(v)] {
			s.park(v.Arrow, "sends on a channel")
		}
		return true

	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			if !s.skip[ast.Node(v)] {
				s.park(v.OpPos, "receives from a channel")
			}
			return true
		}
		if v.Op == token.AND {
			if cl, ok := unparen(v.X).(*ast.CompositeLit); ok {
				s.skip[ast.Node(cl)] = true
				s.alloc(v.Pos(), "taking the address of a composite literal allocates")
			}
		}
		return true

	case *ast.RangeStmt:
		if tv, ok := s.n.info.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				s.park(v.For, "ranges over a channel")
			}
		}
		return true

	case *ast.ReturnStmt:
		s.markColdReturn(v)
		return true

	case *ast.AssignStmt:
		for _, lhs := range v.Lhs {
			if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
				if tv, ok := s.n.info.Types[idx.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						s.alloc(lhs.Pos(), "map assignment may grow the map")
					}
				}
			}
		}
		return true

	case *ast.BinaryExpr:
		if v.Op == token.ADD {
			if tv, ok := s.n.info.Types[v]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if tv.Value == nil { // constant folding is free
						s.alloc(v.OpPos, "string concatenation allocates")
					}
				}
			}
		}
		return true

	case *ast.CompositeLit:
		if !s.skip[ast.Node(v)] {
			if tv, ok := s.n.info.Types[v]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					s.alloc(v.Pos(), "slice literal allocates")
				case *types.Map:
					s.alloc(v.Pos(), "map literal allocates")
				}
			}
		}
		return true

	case *ast.SelectorExpr:
		// A bound method value (x.M used as a value) allocates a closure.
		if !s.callFuns[ast.Expr(v)] {
			if sel := s.n.info.Selections[v]; sel != nil && sel.Kind() == types.MethodVal {
				s.alloc(v.Pos(), "method value allocates a closure")
			}
		}
		return true

	case *ast.CallExpr:
		s.classifyCall(v, false, false)
		return true
	}
	return true
}

// scanDefer handles a defer statement: deferred unlocks pin their lock to
// function end, deferred locks take effect at return, and other deferred
// calls are replayed at scan end against the lock state at return — their
// arguments, though, evaluate immediately.
func (s *bodyScanner) scanDefer(v *ast.DeferStmt) {
	if m, operand := syncLockMethodCG(s.n.info, v.Call); m != "" {
		class := s.lockClassOf(operand)
		switch m {
		case "Unlock", "RUnlock":
			s.pin(class)
			s.deferred = append(s.deferred, deferEntry{unlock: &class})
		case "Lock", "RLock":
			s.deferred = append(s.deferred, deferEntry{lock: &class})
		}
		return
	}
	if fl, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok {
		s.directLits[fl] = true
	}
	if sel, ok := unparen(v.Call.Fun).(*ast.SelectorExpr); ok {
		s.walk(sel.X)
	}
	for _, a := range v.Call.Args {
		s.walk(a)
	}
	s.deferred = append(s.deferred, deferEntry{call: v.Call})
}

// scanGo handles a go statement: the goroutine runs on its own stack, so
// blocking and lock facts do not transfer, but the statement allocates.
func (s *bodyScanner) scanGo(v *ast.GoStmt) {
	s.alloc(v.Pos(), "go statement allocates")
	if fl, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok {
		s.directLits[fl] = true
	}
	if sel, ok := unparen(v.Call.Fun).(*ast.SelectorExpr); ok {
		s.walk(sel.X)
	}
	for _, a := range v.Call.Args {
		s.walk(a)
	}
	s.classifyCall(v.Call, true, false)
}

// scanSelect marks the comm operations as handled and records one park
// fact when the select has no default (it waits for a ready case).
func (s *bodyScanner) scanSelect(v *ast.SelectStmt) {
	hasDefault := false
	for _, c := range v.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			s.skip[ast.Node(comm)] = true
		case *ast.ExprStmt:
			if u, ok := unparen(comm.X).(*ast.UnaryExpr); ok {
				s.skip[ast.Node(u)] = true
			}
		case *ast.AssignStmt:
			for _, r := range comm.Rhs {
				if u, ok := unparen(r).(*ast.UnaryExpr); ok {
					s.skip[ast.Node(u)] = true
				}
			}
		}
	}
	if !hasDefault {
		s.park(v.Select, "parks on a select with no default")
	}
}

// markColdReturn exempts the error-position result expression of a return
// from the allocation check: `return 0, evalErrf(...)` is the cold path of
// a hot function, paid only when the operation already failed.
func (s *bodyScanner) markColdReturn(v *ast.ReturnStmt) {
	sig := s.n.sig
	if sig == nil || sig.Results().Len() == 0 || len(v.Results) == 0 {
		return
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return
	}
	if len(v.Results) != sig.Results().Len() {
		return // `return f()` forwarding a call's results
	}
	last := v.Results[len(v.Results)-1]
	if id, ok := unparen(last).(*ast.Ident); ok && id.Name == "nil" {
		return
	}
	s.exempt = append(s.exempt, posRange{last.Pos(), last.End()})
}

// replayDefers evaluates deferred calls in LIFO order against the lock
// state at function return: a deferred RPC after `defer mu.Unlock()` runs
// before the unlock and is therefore still under the lock; one deferred
// before it runs after the unlock and is not.
func (s *bodyScanner) replayDefers() {
	for i := len(s.deferred) - 1; i >= 0; i-- {
		e := s.deferred[i]
		switch {
		case e.unlock != nil:
			s.releaseAtReturn(*e.unlock)
		case e.lock != nil:
			s.held = append(s.held, heldLock{class: *e.lock})
		default:
			s.classifyCall(e.call, false, true)
		}
	}
}

// --- lock bookkeeping ---

func (s *bodyScanner) heldSnapshot() []lockClass {
	if len(s.held) == 0 {
		return nil
	}
	out := make([]lockClass, len(s.held))
	for i, h := range s.held {
		out[i] = h.class
	}
	return out
}

// release pops the topmost unpinned holding of class (topmost of anything
// as a fallback, so an unmatched unlock never underflows the stack).
func (s *bodyScanner) release(class lockClass) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].class.id == class.id && !s.held[i].pinned {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
	for i := len(s.held) - 1; i >= 0; i-- {
		if !s.held[i].pinned {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

// releaseAtReturn pops any holding of class, pinned included (the deferred
// unlock is what un-pins it).
func (s *bodyScanner) releaseAtReturn(class lockClass) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].class.id == class.id {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
	if n := len(s.held); n > 0 {
		s.held = s.held[:n-1]
	}
}

func (s *bodyScanner) pin(class lockClass) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].class.id == class.id && !s.held[i].pinned {
			s.held[i].pinned = true
			return
		}
	}
}

// lockClassOf identifies the mutex behind a Lock/Unlock receiver
// expression: a struct field ("space.Space.mu"), a package-level var, an
// embedded mutex ("wal.Log.(embedded)"), or a function-local.
func (s *bodyScanner) lockClassOf(x ast.Expr) lockClass {
	info := s.n.info
	switch v := unparen(x).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[v]; sel != nil && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lockClass{
					id:     shortPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + v.Sel.Name,
					global: true,
				}
			}
		}
	case *ast.Ident:
		if vr, ok := info.Uses[v].(*types.Var); ok {
			t := vr.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				if named.Obj().Pkg().Path() != "sync" {
					// s.Lock() through an embedded mutex: the class is the
					// embedding type.
					return lockClass{
						id:     shortPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + ".(embedded)",
						global: true,
					}
				}
				if vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
					return lockClass{id: shortPath(vr.Pkg().Path()) + "." + vr.Name(), global: true}
				}
			}
		}
	}
	return lockClass{id: "local:" + types.ExprString(x)}
}

// syncLockMethodCG resolves package sync's locking methods, returning the
// method name and the mutex operand expression.
func syncLockMethodCG(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", nil
	}
	if fn := calleeOf(info, call); fn != nil && pkgPathOf(fn) == "sync" {
		return sel.Sel.Name, sel.X
	}
	return "", nil
}

// isRPCPath reports whether a package path is the RPC boundary.
func isRPCPath(path string) bool {
	return strings.HasSuffix(path, "/srpc") || strings.HasSuffix(path, "/remote")
}

// --- fact recording ---

func (s *bodyScanner) park(pos token.Pos, desc string) {
	s.n.parks = append(s.n.parks, leafFact{pos: pos, desc: desc, held: s.heldSnapshot()})
}

// alloc records an allocation fact unless an //lint:allocok directive or a
// cold-path range covers it.
func (s *bodyScanner) alloc(pos token.Pos, desc string) {
	if s.allocExempt(pos) {
		return
	}
	s.n.allocs = append(s.n.allocs, leafFact{pos: pos, desc: desc})
}

func (s *bodyScanner) allocExempt(pos token.Pos) bool {
	for _, r := range s.exempt {
		if pos >= r.lo && pos <= r.hi {
			return true
		}
	}
	p := s.g.fset.Position(pos)
	return s.g.allocokLines[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
}

// --- call classification ---

// parkFuncs are stdlib calls that park the goroutine until another
// goroutine acts.
var parkFuncs = map[string]bool{
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait":      true,
	"time.Sleep":             true,
}

// allowedExternal lists external callees known not to allocate; anything
// else outside the program is assumed to allocate for noalloc purposes.
func allowedExternal(fn *types.Func) bool {
	switch pkgPathOf(fn) {
	case "math", "math/bits", "sync", "sync/atomic", "unicode/utf8":
		return true
	}
	switch fn.FullName() {
	case "reflect.TypeOf", "sort.Search", "errors.Is":
		return true
	// time.Time / time.Duration value arithmetic: pure integer math on
	// the wall/monotonic fields, no allocation (unlike Format/String).
	case "(time.Time).UnixNano", "(time.Time).Unix", "(time.Time).Before",
		"(time.Time).After", "(time.Time).Sub", "(time.Time).Add",
		"(time.Time).Equal", "(time.Time).IsZero", "(time.Time).Nanosecond",
		"(time.Duration).Milliseconds", "(time.Duration).Nanoseconds",
		"(time.Duration).Seconds":
		return true
	}
	return strings.HasPrefix(fn.FullName(), "(reflect.Type).")
}

// classifyCall resolves one call expression into lock transitions, a call
// site with targets, or leaf facts.
func (s *bodyScanner) classifyCall(call *ast.CallExpr, goStmt, deferred bool) {
	info := s.n.info

	// Lock transitions first.
	if m, operand := syncLockMethodCG(info, call); m != "" {
		class := s.lockClassOf(operand)
		switch m {
		case "Lock", "RLock":
			if class.global {
				s.n.acquires = append(s.n.acquires, lockAcq{class: class, pos: call.Pos(), held: s.heldSnapshot()})
			}
			s.held = append(s.held, heldLock{class: class})
		case "Unlock", "RUnlock":
			if deferred {
				s.releaseAtReturn(class)
			} else {
				s.release(class)
			}
		}
		return
	}

	fun := unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.alloc(call.Pos(), "make allocates")
			case "new":
				s.alloc(call.Pos(), "new allocates")
			case "append":
				s.alloc(call.Pos(), "append may grow its backing array")
			case "panic":
				// Panicking is the cold path by definition.
				for _, a := range call.Args {
					s.exempt = append(s.exempt, posRange{a.Pos(), a.End()})
				}
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		s.classifyConversion(call, tv.Type)
		return
	}

	site := &callSite{
		pos:      call.Pos(),
		held:     s.heldSnapshot(),
		goStmt:   goStmt,
		deferred: deferred,
	}
	p := s.g.fset.Position(call.Pos())
	site.allocok = s.g.allocokLines[fmt.Sprintf("%s:%d", p.Filename, p.Line)] || s.allocExempt(call.Pos())

	if fl, ok := fun.(*ast.FuncLit); ok {
		s.directLits[fl] = true
		if n := s.g.byKey[litKey(fl)]; n != nil {
			site.name = n.name
			site.targets = []*funcNode{n}
		}
		s.n.calls = append(s.n.calls, site)
		return
	}

	fn := calleeOf(info, call)
	if fn == nil {
		s.classifyIndirect(call, site)
		return
	}

	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		s.classifyIface(call, site, fn)
		return
	}

	// Statically-resolved function or method.
	key := fn.FullName()
	site.name = displayName(fn)
	site.rpc = isRPCPath(pkgPathOf(fn))
	site.fsync = key == "(*os.File).Sync"
	site.park = parkFuncs[key]
	target := s.g.byKey[key]
	if target != nil {
		site.targets = []*funcNode{target}
		s.markNonEscapingLits(call, target, fn.Type().(*types.Signature))
		s.checkCallAllocs(call, fn.Type().(*types.Signature))
	} else if !site.rpc && !site.fsync && !site.park && !allowedExternal(fn) {
		s.alloc(call.Pos(), fmt.Sprintf("calls %s (external, assumed to allocate)", site.name))
	}
	s.n.calls = append(s.n.calls, site)
}

// classifyConversion records allocating conversions: boxing into an
// interface and string/byte-slice copies.
func (s *bodyScanner) classifyConversion(call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src, ok := s.n.info.Types[call.Args[0]]
	if !ok {
		return
	}
	if types.IsInterface(dst.Underlying()) && src.Type != nil && !types.IsInterface(src.Type.Underlying()) {
		s.alloc(call.Pos(), "conversion to an interface may allocate")
		return
	}
	db, dok := dst.Underlying().(*types.Basic)
	ss, sok := src.Type.Underlying().(*types.Slice)
	if dok && db.Info()&types.IsString != 0 && sok {
		_ = ss
		s.alloc(call.Pos(), "byte-slice to string conversion allocates")
		return
	}
	if _, isSlice := dst.Underlying().(*types.Slice); isSlice {
		if sb, ok := src.Type.Underlying().(*types.Basic); ok && sb.Info()&types.IsString != 0 {
			s.alloc(call.Pos(), "string to byte-slice conversion allocates")
		}
	}
}

// classifyIface widens a dynamic dispatch to every in-program implementer.
func (s *bodyScanner) classifyIface(call *ast.CallExpr, site *callSite, fn *types.Func) {
	recv := fn.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	ifaceName := "interface"
	if named, ok := recv.(*types.Named); ok {
		pkg := ""
		if named.Obj().Pkg() != nil {
			pkg = shortPath(named.Obj().Pkg().Path()) + "."
		}
		ifaceName = pkg + named.Obj().Name()
	}
	site.name = ifaceName + "." + fn.Name()
	site.blessed = s.g.blessedIface[fn.FullName()]
	site.targets = s.g.implementersOf(iface, fn)
	if len(site.targets) == 0 {
		// No in-program implementer: external interface (reflect.Type,
		// io.Writer, ...). Assume allocation unless allowlisted.
		if !allowedExternal(fn) {
			s.alloc(call.Pos(), fmt.Sprintf("calls %s (dynamic, no in-program implementer, assumed to allocate)", site.name))
		}
	}
	s.checkCallAllocs(call, fn.Type().(*types.Signature))
	s.n.calls = append(s.n.calls, site)
}

// classifyIndirect resolves a call through a function value: first the
// flow index (field/var/param/local assignments), then signature widening
// over every address-taken function.
func (s *bodyScanner) classifyIndirect(call *ast.CallExpr, site *callSite) {
	info := s.n.info
	fun := unparen(call.Fun)
	site.name = types.ExprString(fun)
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return // conversion-like or bad expr; nothing to track
	}
	if loc := locOf(info, s.n.pkg, fun); loc != "" {
		if fs := s.g.flow[loc]; fs != nil && !fs.unknown && len(fs.nodes) > 0 {
			site.targets = sortNodes(fs.nodes)
			s.n.calls = append(s.n.calls, site)
			return
		}
	}
	site.targets = sortNodes(s.g.addrTaken[sigKey(sig)])
	if len(site.targets) == 0 {
		// A func value nothing in the program ever produced: assume the
		// worst for allocation, nothing for blocking (documented limit).
		s.alloc(call.Pos(), fmt.Sprintf("calls %s (unresolved function value, assumed to allocate)", site.name))
	}
	s.n.calls = append(s.n.calls, site)
}

// markNonEscapingLits suppresses the closure-allocation fact for literals
// passed to call-only params of a statically-resolved callee: the literal
// never escapes, so the compiler keeps it on the stack.
func (s *bodyScanner) markNonEscapingLits(call *ast.CallExpr, target *funcNode, sig *types.Signature) {
	for i, arg := range call.Args {
		fl, ok := unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if s.g.paramCallOnly(target, pi) {
			s.directLits[fl] = true
		}
	}
}

// checkCallAllocs records boxing of concrete arguments into interface
// params and the argument-slice allocation of variadic calls.
func (s *bodyScanner) checkCallAllocs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		variadicPart := false
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
			variadicPart = true
		}
		if pi < 0 || pi >= params.Len() {
			continue
		}
		pt := params.At(pi).Type()
		if variadicPart && call.Ellipsis == token.NoPos {
			if st, ok := pt.(*types.Slice); ok {
				pt = st.Elem()
				if i == params.Len()-1 {
					s.alloc(call.Pos(), "variadic call allocates its argument slice")
				}
			}
		}
		at, ok := s.n.info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Type.Underlying()) {
			s.alloc(arg.Pos(), "argument boxed into an interface parameter")
		}
	}
}

// paramCallOnly reports whether target's i'th parameter is function-typed
// and only ever invoked within the body — never stored, returned or passed
// somewhere that escapes.
func (g *callGraph) paramCallOnly(target *funcNode, i int) bool {
	if target.sig == nil || target.body == nil || i < 0 || i >= target.sig.Params().Len() {
		return false
	}
	if target.callOnly == nil {
		target.callOnly = make(map[int]bool)
	} else if v, ok := target.callOnly[i]; ok {
		return v
	}
	pv := target.sig.Params().At(i)
	result := false
	if _, isFunc := pv.Type().(*types.Signature); isFunc {
		// The address-escape rule in recordFuncValue marks params of
		// address-taken functions unknown; treat that as escaping too.
		if fs := g.flow[fmt.Sprintf("l:%d", pv.Pos())]; fs == nil || !fs.unknown {
			callFuns := make(map[ast.Expr]bool)
			ast.Inspect(target.body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					callFuns[unparen(call.Fun)] = true
				}
				return true
			})
			result = true
			ast.Inspect(target.body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || target.info.Uses[id] != pv {
					return true
				}
				if !callFuns[ast.Expr(id)] {
					result = false
				}
				return true
			})
		}
	}
	target.callOnly[i] = result
	return result
}

func sortNodes(nodes []*funcNode) []*funcNode {
	if len(nodes) < 2 {
		return nodes
	}
	out := append([]*funcNode{}, nodes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].id > out[j].id; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
