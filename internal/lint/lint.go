// Package lint is sensorcer's from-scratch static-analysis framework: a
// dependency-free analyzer harness on go/parser + go/types that machine-
// checks the invariants the federation's resilience guarantees rest on —
// no wall-clock time in library code, no goroutine without an exit path,
// no mutex held across an RPC, fault-injection sites as unique
// test-covered constants, context discipline, and no silently discarded
// Cancel/Abort/Close errors. cmd/sensorlint is the CLI; `make lint` wires
// it into the build.
//
// A diagnostic can be suppressed with an explicit, justified escape hatch
// on the offending line or the line above it:
//
//	//lint:ignore sensorlint/<analyzer> <reason>
//
// The reason is mandatory; an ignore without one does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run (per package) and RunProgram
// (once, over every loaded package — for whole-repo invariants like
// fault-site uniqueness) are both optional.
type Analyzer struct {
	// Name is the short identifier ("rawclock") used in diagnostics and
	// ignore directives.
	Name string
	// Doc is the one-line invariant description.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass)
	// RunProgram analyzes all loaded packages together.
	RunProgram func(*ProgramPass)
}

// Diagnostic is one reported violation. Interprocedural analyzers attach
// the full evidence chain ("file:line: what", one hop per entry), printed
// by `sensorlint -why`.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Chain    []string
}

// String formats the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (sensorlint/%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Fset   *token.FileSet
	Module string
	Pkg    *Package

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries a program-level analyzer's view of every package.
type ProgramPass struct {
	Fset   *token.FileSet
	Module string
	Pkgs   []*Package

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChain records a diagnostic with an evidence chain for -why.
func (p *ProgramPass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Analyzers returns every sensorlint analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{RawClock, GoroLeak, FaultSite, CtxFlow, MustClose, EpochGuard, DeepBlock, LockOrder, NoAlloc}
}

// ByName resolves a comma-separated analyzer selection ("rawclock,ctxflow").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(strings.TrimPrefix(name, "sensorlint/"))
		found := false
		for _, a := range Analyzers() {
			if a.Name == name {
				out = append(out, a)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run expands patterns relative to the module rooted at dir, loads and
// type-checks every matched package (tests included), runs the analyzers,
// and returns the surviving diagnostics sorted by position. An error means
// the load itself failed (exit 2 territory), not that violations exist.
func Run(dir, module string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l := NewLoader(dir, module)
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range paths {
		loaded, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return Analyze(l, pkgs, analyzers), nil
}

// Analyze runs analyzers over already-loaded packages, applying ignore
// directives and sorting the result.
func Analyze(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &Pass{Fset: l.Fset(), Module: l.Module, Pkg: pkg, analyzer: a, report: report}
				a.Run(pass)
			}
		}
		if a.RunProgram != nil {
			pp := &ProgramPass{Fset: l.Fset(), Module: l.Module, Pkgs: pkgs, analyzer: a, report: report}
			a.RunProgram(pp)
		}
	}
	diags = filterIgnored(l, pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreKey identifies one suppressed (file, line, analyzer) cell.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// filterIgnored drops diagnostics covered by a justified
// `//lint:ignore sensorlint/<name> reason` directive on the same line or
// the line directly above.
func filterIgnored(l *Loader, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	ignored := make(map[ignoreKey]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "lint:ignore ")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						continue // a reason is mandatory
					}
					pos := l.Fset().Position(c.Pos())
					for _, name := range strings.Split(fields[0], ",") {
						name = strings.TrimPrefix(name, "sensorlint/")
						ignored[ignoreKey{pos.Filename, pos.Line, name}] = true
						ignored[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
					}
				}
			}
		}
	}
	if len(ignored) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		if !ignored[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept
}

// --- shared analyzer helpers ---

// isInternalPath reports whether path has an "internal" segment — the
// library code the concurrency/clock invariants bind.
func isInternalPath(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// isClockworkPath reports the one package allowed to touch the real clock.
func isClockworkPath(path string) bool {
	return strings.HasSuffix(path, "/clockwork")
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the statically-known function or method a call
// invokes, or nil for calls through function values and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathOf returns the defining package path of a function ("" for
// builtins and universe-scope objects).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isPkgSelector reports whether sel is a qualified reference pkg.Name
// into the package with the given import path.
func isPkgSelector(info *types.Info, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}
