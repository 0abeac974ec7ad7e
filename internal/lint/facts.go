package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FuncFacts is the whole-program summary of one function — everything
// an analyzer in another package needs to know about calling it,
// without seeing its body. Facts are position-free by design (strings
// and booleans only), so they are independent of any FileSet.
type FuncFacts struct {
	// Parks: calling this function may reach a parking point (a golc
	// Lock/RLock or the runtime's Handle.Wait), transitively. ParkWhat
	// describes the chain for reports ("q.inner → Lock on b.Mu").
	Parks    bool
	ParkWhat string

	// HeldDelta lists lock classes still held at some exit of this
	// function: the acquire-helper contract (oltp's lm.lock(st) shape).
	// A caller's held set grows by these classes at the call site.
	HeldDelta []string

	// Releases lists lock classes this function releases without a
	// matching in-function acquire — the release-helper dual of
	// HeldDelta.
	Releases []string

	// Blocks: calling this function does blocking or alloc-heavy work
	// (I/O, channel operations, time.Sleep, fmt printing to writers),
	// transitively — heldcall's reason to keep it out of critical
	// sections. BlockWhat describes the operation.
	Blocks    bool
	BlockWhat string
}

func (f *FuncFacts) isZero() bool {
	return !f.Parks && !f.Blocks && len(f.HeldDelta) == 0 && len(f.Releases) == 0
}

// PackageFacts is the fact set of one package.
type PackageFacts struct {
	// Funcs maps symbolOf keys ("(*repro/internal/golc.Mutex).Lock")
	// to facts. Functions with all-zero facts are omitted.
	Funcs map[string]*FuncFacts
}

// symbolOf keys a function in PackageFacts.Funcs. Origin strips any
// instantiation so generic functions key by their declaration.
func symbolOf(fn *types.Func) string { return fn.Origin().FullName() }

// addClass inserts c into the sorted set *set; reports whether it was
// new.
func addClass(set *[]string, c string) bool {
	i := sort.SearchStrings(*set, c)
	if i < len(*set) && (*set)[i] == c {
		return false
	}
	*set = append(*set, "")
	copy((*set)[i+1:], (*set)[i:])
	(*set)[i] = c
	return true
}

// chainWhat prefixes a description with the function it routes
// through, capping the chain so deep call paths stay readable.
func chainWhat(via, what string) string {
	if strings.Count(what, " → ") >= 3 {
		return via + " → …"
	}
	return via + " → " + what
}

// foldFacts merges callee facts into dst (everything but the
// HeldDelta/Releases protocol, which walkFunc applies positionally);
// reports whether dst changed.
func foldFacts(dst *FuncFacts, via string, src *FuncFacts) bool {
	changed := false
	if src.Parks && !dst.Parks {
		dst.Parks = true
		dst.ParkWhat = chainWhat(via, src.ParkWhat)
		changed = true
	}
	if src.Blocks && !dst.Blocks {
		dst.Blocks = true
		dst.BlockWhat = chainWhat(via, src.BlockWhat)
		changed = true
	}
	return changed
}

// computePackageFacts builds pkg's fact set. Same-package call chains
// close by fixpoint; cross-package callees resolve through prog (which
// computes dependency facts on demand). Function literals are excluded from the flat scan — a
// closure's body runs when invoked, which the scan cannot place.
func computePackageFacts(pkg *Package, prog *Program) *PackageFacts {
	type rawFact struct {
		facts   *FuncFacts
		callees map[*types.Func]bool
		acqKeys map[string]bool
		relKeys map[string]string // release key → class, first seen
	}
	raw := make(map[*types.Func]*rawFact)
	var fns []*types.Func // deterministic fixpoint order

	// crossFacts resolves a callee outside pkg through the program
	// store; same-package callees are nil here (they close by fixpoint
	// below, and are not final while this package is being computed).
	crossFacts := func(fn *types.Func) *FuncFacts {
		if fn == nil || fn.Pkg() == nil || fn.Pkg() == pkg.Types {
			return nil
		}
		return prog.FactsOf(fn)
	}

	noteBlock := func(f *FuncFacts, what string) {
		if !f.Blocks {
			f.Blocks = true
			f.BlockWhat = what
		}
	}

	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		rf := &rawFact{
			facts:   &FuncFacts{},
			callees: make(map[*types.Func]bool),
			acqKeys: make(map[string]bool),
			relKeys: make(map[string]string),
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				noteBlock(rf.facts, "channel send")
				return true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					noteBlock(rf.facts, "channel receive")
				}
				return true
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					noteBlock(rf.facts, "blocking select")
				}
				return true
			case *ast.RangeStmt:
				if isChanExpr(pkg.Info, n.X) {
					noteBlock(rf.facts, "range over channel")
				}
				return true
			case *ast.CallExpr:
				ci := classifyCall(pkg.Info, n)
				switch ci.kind {
				case kindAcqPark:
					if !rf.facts.Parks {
						rf.facts.Parks = true
						rf.facts.ParkWhat = ci.name + " on " + types.ExprString(ci.recv)
					}
					rf.acqKeys[lockKeyOf(ci.recv, ci.read)] = true
				case kindAcqTry:
					rf.acqKeys[lockKeyOf(ci.recv, ci.read)] = true
				case kindRelease:
					key := lockKeyOf(ci.recv, ci.read)
					if _, ok := rf.relKeys[key]; !ok {
						rf.relKeys[key] = classOf(pkg.Info, ci.recv)
					}
				case kindHandleWait:
					if !rf.facts.Parks {
						rf.facts.Parks = true
						rf.facts.ParkWhat = "runtime park (" + ci.name + ")"
					}
				case kindNone:
					if what, ok := blockingCall(pkg.Info, ci); ok {
						noteBlock(rf.facts, what)
					} else if ci.callee != nil {
						if ci.callee.Pkg() == pkg.Types {
							rf.callees[ci.callee] = true
						} else if ff := crossFacts(ci.callee); ff != nil {
							foldFacts(rf.facts, displayFunc(ci.callee, false), ff)
						}
					}
				}
				return true
			}
			return true
		})
		raw[fn] = rf
		fns = append(fns, fn)
	})

	// Close parks/blocks over the same-package call graph.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			rf := raw[fn]
			for callee := range rf.callees {
				crf, ok := raw[callee]
				if !ok {
					continue
				}
				if foldFacts(rf.facts, callee.Name(), crf.facts) {
					changed = true
				}
			}
		}
	}

	// HeldDelta and Releases: what a call to this function does to the
	// caller's held set. The walker (with cross-package summaries
	// injected) computes the exit-held classes; releases are release
	// calls with no matching in-function acquire.
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		rf := raw[fn]
		if rf == nil {
			return
		}
		var delta []string
		walkFunc(pkg.Info, fd.Body, crossFacts, hooks{
			onExit: func(pos token.Pos, held []heldLock) {
				for _, h := range held {
					if h.class == "" {
						continue
					}
					addClass(&delta, h.class)
				}
			},
		})
		rf.facts.HeldDelta = delta
		for key, cls := range rf.relKeys {
			if cls == "" || rf.acqKeys[key] {
				continue
			}
			addClass(&rf.facts.Releases, cls)
		}
	})

	pf := &PackageFacts{Funcs: make(map[string]*FuncFacts)}
	for fn, rf := range raw {
		if rf.facts.isZero() {
			continue
		}
		pf.Funcs[symbolOf(fn)] = rf.facts
	}
	return pf
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
