package lint

import (
	"go/ast"
	"strings"
)

// EpochGuard machine-checks the replication layer's fencing invariant:
// code that can make a mutation durable must first consult the epoch
// fence, so a superseded primary can never acknowledge a write.
//
// Two package-scoped rules, both straight-line intraprocedural (a guard
// call anywhere earlier in the same function body satisfies the rule;
// nested function literals are their own scopes):
//
//   - in internal/space, a function that calls journalLocked or
//     journalBatchLocked must call checkGuardLocked first — the guard is
//     how repl fences a stale primary out of the space's durable paths;
//   - in internal/repl, a function that calls a journal/WAL mutation
//     entry point (Append, AppendBatch, AppendAt, InstallSnapshot,
//     WriteSnapshot, ShipBatch, ShipSnapshot) must first call one of the
//     requireEpoch* checks that read the node's replication state under
//     its lock;
//   - in internal/repl, a function that commits a coordinator decision —
//     publishing a new configuration via publishLocked (every epoch bump
//     and every parking of the pair goes through it) — must first call one of the requireCoord* fencing-token checks,
//     so a deposed coordinator's stale decisions bounce statically as
//     well as dynamically.
//
// The guard/check implementations themselves are exempt, as are test
// files (tests exercise unfenced paths deliberately).
var EpochGuard = &Analyzer{
	Name: "epochguard",
	Doc:  "flag durable-mutation entry points that skip the epoch fence check",
	Run: func(pass *Pass) {
		path := pass.Pkg.Path
		var rules []epochguardRule
		switch {
		case strings.HasSuffix(path, "/space"):
			rules = []epochguardRule{{
				mutations: map[string]bool{"journalLocked": true, "journalBatchLocked": true},
				guardOK:   func(name string) bool { return name == "checkGuardLocked" },
				guardDesc: "checkGuardLocked",
			}}
		case strings.HasSuffix(path, "/repl"):
			rules = []epochguardRule{{
				mutations: map[string]bool{
					"Append": true, "AppendBatch": true, "AppendAt": true,
					"InstallSnapshot": true, "WriteSnapshot": true,
					"ShipBatch": true, "ShipSnapshot": true,
				},
				guardOK:   func(name string) bool { return strings.HasPrefix(name, "requireEpoch") },
				guardDesc: "a requireEpoch* check",
			}, {
				mutations: map[string]bool{"publishLocked": true},
				guardOK:   func(name string) bool { return strings.HasPrefix(name, "requireCoord") },
				guardDesc: "a requireCoord* fencing-token check",
			}}
		default:
			return
		}
		for _, f := range pass.Pkg.Files {
			if pass.Pkg.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok {
					return true
				}
				name := fd.Name.Name
				for _, rule := range rules {
					if rule.guardOK(name) || rule.mutations[name] {
						// The fence itself, or a mutation primitive whose
						// callers carry the obligation.
						continue
					}
					epochguardScan(pass, fd.Body, rule.mutations, rule.guardOK, rule.guardDesc)
				}
				return true
			})
		}
	},
}

// epochguardRule pairs one set of fence-requiring mutation entry points
// with the guard calls that discharge them.
type epochguardRule struct {
	mutations map[string]bool
	guardOK   func(name string) bool
	guardDesc string
}

// calleeName extracts the bare called name from a call expression
// (method selector or plain identifier), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// epochguardScan walks one function body in source order: a mutation
// call is flagged unless a guard call precedes it.
func epochguardScan(pass *Pass, body *ast.BlockStmt, mutations map[string]bool, guardOK func(string) bool, guardDesc string) {
	if body == nil {
		return
	}
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			epochguardScan(pass, v.Body, mutations, guardOK, guardDesc)
			return false // its own scope
		case *ast.CallExpr:
			name := calleeName(v)
			if guardOK(name) {
				guarded = true
			} else if mutations[name] && !guarded {
				pass.Reportf(v.Pos(),
					"durable mutation %s without a preceding epoch fence check; call %s first so a superseded primary cannot acknowledge this",
					name, guardDesc)
			}
		}
		return true
	})
}
