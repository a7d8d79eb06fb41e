package lint

// LockOrder builds the global lock-acquisition-order graph: an edge A→B
// means some goroutine acquires mutex class B (directly or through a
// callee, per the call-graph summaries) while already holding A. A cycle
// in that graph is a potential ABBA deadlock between the space, repl,
// router and lease layers — the kind of wedge no chaos seed reliably
// reproduces but a partition plus a lease expiry will.
//
// Lock identity is the (named type, field) class — "space.Space.mu",
// "repl.Node.mu" — so two instances of the same class are conflated;
// self-edges are skipped for exactly that reason (the two Nodes of a
// replicated pair are distinct locks of one class). An intended hierarchy that the checker
// cannot prove safe is blessed with an edge annotation anywhere in the
// tree:
//
//	//lint:lockorder allow space.Space.mu->lease.Table.mu <reason>
//
// `go` statements contribute no edges: the goroutine starts with an empty
// held set. Each cycle is reported once, at the first edge of the
// lexicographically smallest cycle rotation, with the acquisition trail in
// the -why chain.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// lockEdge is one observed A-held→B-acquired pair with its provenance.
type lockEdge struct {
	from, to string
	pos      token.Pos
	owner    *funcNode // function whose scan produced the edge
	via      *funcNode // callee carrying the acquisition, nil when direct
}

var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "report cycles in the global lock-acquisition-order graph (potential deadlocks)",
	RunProgram: func(pp *ProgramPass) {
		g := programGraph(pp)
		edges := collectLockEdges(g)
		reportLockCycles(pp, g, edges)
	},
}

// collectLockEdges gathers every ordering edge: direct nested acquisitions
// and, at each call site, edges from the held set to every class the
// callee transitively acquires.
func collectLockEdges(g *callGraph) []lockEdge {
	var edges []lockEdge
	add := func(e lockEdge) {
		if e.from == e.to {
			return
		}
		if g.lockAllows[e.from+"->"+e.to] {
			return
		}
		edges = append(edges, e)
	}
	for _, n := range g.nodes {
		for _, a := range n.acquires {
			for _, h := range a.held {
				if h.global {
					add(lockEdge{from: h.id, to: a.class.id, pos: a.pos, owner: n})
				}
			}
		}
		for _, cs := range n.calls {
			if cs.goStmt || len(cs.held) == 0 {
				continue
			}
			for _, t := range cs.targets {
				for _, id := range sortedWitnessKeys(t.sum.acquires) {
					for _, h := range cs.held {
						if h.global {
							add(lockEdge{from: h.id, to: id, pos: cs.pos, owner: n, via: t})
						}
					}
				}
			}
		}
	}
	return edges
}

// reportLockCycles condenses the lock graph and reports each non-trivial
// SCC once as a cycle, deterministically.
func reportLockCycles(pp *ProgramPass, g *callGraph, edges []lockEdge) {
	adj := make(map[string]map[string]*lockEdge)
	var locks []string
	seenLock := make(map[string]bool)
	note := func(id string) {
		if !seenLock[id] {
			seenLock[id] = true
			locks = append(locks, id)
		}
	}
	for i := range edges {
		e := &edges[i]
		note(e.from)
		note(e.to)
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]*lockEdge)
		}
		if adj[e.from][e.to] == nil {
			adj[e.from][e.to] = e
		}
	}
	sort.Strings(locks)

	comp := lockSCCs(locks, adj)
	for _, scc := range comp {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, id := range scc {
			inSCC[id] = true
		}
		// Walk one concrete cycle starting at the smallest lock, always
		// taking the smallest in-SCC successor.
		cycle := []string{scc[0]}
		var trail []*lockEdge
		cur := scc[0]
		for len(cycle) <= len(scc)+1 {
			succ := ""
			for _, to := range sortedEdgeKeys(adj[cur]) {
				if inSCC[to] {
					succ = to
					break
				}
			}
			if succ == "" {
				break
			}
			trail = append(trail, adj[cur][succ])
			if succ == cycle[0] {
				break
			}
			cycle = append(cycle, succ)
			cur = succ
		}
		first := trail[0]
		var chain []string
		for _, e := range trail {
			where := fmt.Sprintf("%s: %s -> %s in %s", g.fset.Position(e.pos), e.from, e.to, e.owner.name)
			if e.via != nil {
				where += " via " + e.via.name
				chain = append(chain, where)
				chain = append(chain, g.acquireChain(e.via, e.to)...)
			} else {
				chain = append(chain, where)
			}
		}
		pp.ReportChain(first.pos, chain,
			"lock-order cycle %s -> %s: these mutexes are acquired in conflicting orders (potential deadlock); establish a global order or bless an intended edge with //lint:lockorder allow A->B <reason>",
			strings.Join(cycle, " -> "), cycle[0])
	}
}

func sortedEdgeKeys(m map[string]*lockEdge) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockSCCs is Tarjan over the lock graph (tiny: one node per mutex class).
func lockSCCs(locks []string, adj map[string]map[string]*lockEdge) [][]string {
	index := make(map[string]int)
	lowlink := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var out [][]string
	idx := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		idx++
		index[v], lowlink[v] = idx, idx
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedEdgeKeys(adj[v]) {
			if index[w] == 0 {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, v := range locks {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return out
}
