package lint

// DeepBlock uses the whole-program call graph to flag any call that
// reaches an RPC boundary (internal/srpc, internal/remote), a WAL fsync
// ((*os.File).Sync), or a channel park — directly or one or more calls
// deep — while a mutex acquired in the reporting function is still held.
// One wedged provider, slow disk or absent receiver then stalls every
// goroutine contending for that mutex — the exact coupling a managed
// federation exists to prevent. Deferred calls are judged against the
// locks held when they run at return (LIFO), not where they are written.
//
// Designed-in blocking (the journal-before-ack contract, the WAL's
// group-commit fsync) is blessed at its declaration with
// `//lint:blockok <reason>`, which both silences findings inside the
// blessed function and stops its blocking facts from propagating to
// callers. Dispatch through an interface method annotated blockok is
// likewise trusted.

var DeepBlock = &Analyzer{
	Name: "deepblock",
	Doc:  "flag call paths reaching RPC/fsync/channel-park while a mutex is held (interprocedural)",
	RunProgram: func(pp *ProgramPass) {
		g := programGraph(pp)
		for _, n := range g.nodes {
			if n.blockok {
				continue
			}
			for _, pf := range n.parks {
				if len(pf.held) == 0 {
					continue
				}
				pp.ReportChain(pf.pos, nil,
					"%s while %s is held; an absent or slow peer goroutine wedges every waiter on the lock",
					pf.desc, pf.held[len(pf.held)-1].id)
			}
			for _, cs := range n.calls {
				if len(cs.held) == 0 || cs.goStmt || cs.blessed {
					continue
				}
				lock := cs.held[len(cs.held)-1].id
				when := ""
				if cs.deferred {
					when = " (deferred: runs at return with the lock still held)"
				}
				// Direct leaf hazards.
				if cs.rpc {
					pp.ReportChain(cs.pos, nil,
						"call to %s crosses the RPC boundary while %s is held%s; release the lock first",
						cs.name, lock, when)
				}
				if cs.fsync {
					pp.ReportChain(cs.pos, nil,
						"fsync via %s while %s is held%s; release the lock before forcing the disk",
						cs.name, lock, when)
				}
				if cs.park {
					pp.ReportChain(cs.pos, nil,
						"call to %s parks while %s is held%s; release the lock first",
						cs.name, lock, when)
				}
				// Transitive hazards through callee summaries.
				reported := map[string]bool{"rpc": cs.rpc}
				for _, t := range cs.targets {
					for _, kind := range [...]string{"rpc", "fsync", "park"} {
						if reported[kind] || t.sum.witness(kind) == nil {
							continue
						}
						reported[kind] = true
						verb := map[string]string{
							"rpc":   "crosses the RPC boundary",
							"fsync": "forces an fsync",
							"park":  "can park on a channel",
						}[kind]
						pp.ReportChain(cs.pos, g.chain(t.sum.witness(kind), kind),
							"call to %s %s while %s is held%s (path: %s); release the lock before blocking, or bless the design with //lint:blockok",
							cs.name, verb, lock, when, g.pathString(t, kind))
					}
				}
			}
		}
	},
}
