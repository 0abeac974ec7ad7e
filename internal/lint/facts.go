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
	// Lock/RLock/LockCtx/RLockCtx, a ContentionPolicy.Wait, or a
	// runtime Ticket.Sleep), transitively. ParkWhat describes the
	// chain for reports ("q.inner → Lock on b.Mu").
	Parks    bool
	ParkWhat string

	// Classes is the set of acquisition-order classes this function
	// blocking-acquires, transitively — the lockorder edges a call to
	// it creates.
	Classes []string

	// HeldDelta lists lock classes still held at some exit of this
	// function: the acquire-helper contract (oltp's lm.lock(st) shape).
	// A caller's held set grows by these classes at the call site.
	HeldDelta []string

	// Releases lists lock classes this function releases without a
	// matching in-function acquire — the release-helper dual of
	// HeldDelta.
	Releases []string

	// CtxBgWait: this function roots a (transitively) parking wait at
	// context.Background()/TODO() with no context of its own in scope
	// and no *Ctx drop-in sibling — a wait the deadlock detector's
	// cancellation-kill cannot reach. CtxWhat describes the root for
	// reports.
	CtxBgWait bool
	CtxWhat   string

	// Blocks: calling this function does blocking or alloc-heavy work
	// (I/O, channel operations, time.Sleep, fmt printing to writers),
	// transitively — heldcall's reason to keep it out of critical
	// sections. BlockWhat describes the operation.
	Blocks    bool
	BlockWhat string
}

func (f *FuncFacts) isZero() bool {
	return !f.Parks && !f.CtxBgWait && !f.Blocks &&
		len(f.Classes) == 0 && len(f.HeldDelta) == 0 && len(f.Releases) == 0
}

// PackageFacts is the fact set of one package.
type PackageFacts struct {
	// Funcs maps symbolOf keys ("(*repro/internal/golc.Mutex).Lock")
	// to facts. Functions with all-zero facts are omitted.
	Funcs map[string]*FuncFacts

	// AtomicFields lists struct fields ("pkgpath.Type.field") this
	// package touches through sync/atomic calls — atomicfield's
	// "atomic anywhere means atomic everywhere" set.
	AtomicFields []string
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

func hasClass(set []string, c string) bool {
	i := sort.SearchStrings(set, c)
	return i < len(set) && set[i] == c
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
// HeldDelta/Releases protocol, which walkFuncSum applies positionally);
// reports whether dst changed.
func foldFacts(dst *FuncFacts, via string, src *FuncFacts) bool {
	changed := false
	if src.Parks && !dst.Parks {
		dst.Parks = true
		dst.ParkWhat = chainWhat(via, src.ParkWhat)
		changed = true
	}
	for _, c := range src.Classes {
		if addClass(&dst.Classes, c) {
			changed = true
		}
	}
	if src.Blocks && !dst.Blocks {
		dst.Blocks = true
		dst.BlockWhat = chainWhat(via, src.BlockWhat)
		changed = true
	}
	if src.CtxBgWait && !dst.CtxBgWait {
		dst.CtxBgWait = true
		dst.CtxWhat = chainWhat(via, src.CtxWhat)
		changed = true
	}
	return changed
}

// hasCtxSibling reports whether fn has a *Ctx drop-in variant (same
// receiver, name+"Ctx") — the sanctioned convenience-wrapper shape
// (Run/RunCtx, Begin/BeginCtx) that ctxlock's rule 2 already covers,
// so the facts layer must not also blame it.
func hasCtxSibling(pkg *Package, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	name := fn.Name() + "Ctx"
	if sig.Recv() != nil {
		obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), name)
		_, isFn := obj.(*types.Func)
		return isFn
	}
	_, isFn := pkg.Types.Scope().Lookup(name).(*types.Func)
	return isFn
}

// computePackageFacts builds pkg's fact set. Same-package call chains
// close by fixpoint; cross-package callees resolve through prog (which
// computes dependency facts on demand). Function literals are excluded from the flat scan — a
// closure's body runs when invoked, which the scan cannot place.
func computePackageFacts(pkg *Package, prog *Program) *PackageFacts {
	sup := newSuppressions([]*Package{pkg})
	golcPkg := isGolcPkgPath(pkg.ImportPath)

	type rawFact struct {
		facts      *FuncFacts
		callees    map[*types.Func]bool
		ctxPending map[*types.Func]string // same-package ctx sinks: callee → "Background"/"TODO"
		acqKeys    map[string]bool
		relKeys    map[string]string // release key → class, first seen
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
			facts:      &FuncFacts{},
			callees:    make(map[*types.Func]bool),
			ctxPending: make(map[*types.Func]string),
			acqKeys:    make(map[string]bool),
			relKeys:    make(map[string]string),
		}
		// A function with a real context of its own is rule-1
		// territory at its own sites; golc's Background roots are the
		// documented uncancellable contract; a *Ctx sibling is rule-2
		// territory. None of those should surface as caller-side facts.
		ctxExempt := golcPkg || hasCtxSibling(pkg, fn)
		if !ctxExempt {
			var sources []string
			sources = appendCtxSources(pkg.Info, sources, fd.Recv)
			sources = appendCtxSources(pkg.Info, sources, fd.Type.Params)
			ctxExempt = len(sources) > 0
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
					if c := classOf(pkg.Info, ci.recv); c != "" {
						addClass(&rf.facts.Classes, c)
					}
					rf.acqKeys[lockKeyOf(ci.recv, ci.read)] = true
				case kindAcqNoPark:
					if c := classOf(pkg.Info, ci.recv); c != "" {
						addClass(&rf.facts.Classes, c)
					}
					rf.acqKeys[lockKeyOf(ci.recv, ci.read)] = true
				case kindAcqTry:
					rf.acqKeys[lockKeyOf(ci.recv, ci.read)] = true
				case kindRelease:
					key := lockKeyOf(ci.recv, ci.read)
					if _, ok := rf.relKeys[key]; !ok {
						rf.relKeys[key] = classOf(pkg.Info, ci.recv)
					}
				case kindPolicyWait, kindTicketSleep:
					if !rf.facts.Parks {
						rf.facts.Parks = true
						rf.facts.ParkWhat = "policy wait (" + ci.name + ")"
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
				if !ctxExempt && !rf.facts.CtxBgWait {
					scanCtxBgFact(pkg, sup, ci, n, crossFacts, rf.facts, rf.ctxPending)
				}
				return true
			}
			return true
		})
		raw[fn] = rf
		fns = append(fns, fn)
	})

	// Close parks/classes/blocks/ctx over the same-package call graph.
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
			if !rf.facts.CtxBgWait {
				for callee, ctor := range rf.ctxPending {
					if crf, ok := raw[callee]; ok && crf.facts.Parks {
						rf.facts.CtxBgWait = true
						rf.facts.CtxWhat = "context." + ctor + "() into " + callee.Name()
						changed = true
						break
					}
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
		walkFuncSum(pkg.Info, fd.Body, crossFacts, hooks{
			onExit: func(pos token.Pos, held []heldLock) {
				for _, h := range held {
					if h.logical || h.class == "" {
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

	// Fields this package touches through sync/atomic.
	var atomicFields []string
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, sym := range atomicCallFields(pkg.Info, call) {
					addClass(&atomicFields, sym)
				}
			}
			return true
		})
	}

	pf := &PackageFacts{
		Funcs:        make(map[string]*FuncFacts),
		AtomicFields: atomicFields,
	}
	for fn, rf := range raw {
		if rf.facts.isZero() {
			continue
		}
		pf.Funcs[symbolOf(fn)] = rf.facts
	}
	return pf
}

// scanCtxBgFact records that a function roots a parking wait at
// context.Background()/TODO(): a Background/TODO argument in a context
// parameter slot of a call that parks — by classification, by
// cross-package facts, or (pending the fixpoint) by a same-package
// callee. Sites the author already suppressed for ctxlock generate no
// fact.
func scanCtxBgFact(pkg *Package, sup *suppressions, ci callInfo, call *ast.CallExpr,
	crossFacts func(*types.Func) *FuncFacts, facts *FuncFacts, pending map[*types.Func]string) {
	sig := calleeSignature(pkg.Info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		ctor := backgroundOrTODO(pkg.Info, arg)
		if ctor == "" {
			continue
		}
		pt := paramTypeAt(sig, i)
		if pt == nil || !isContextType(pt) {
			continue
		}
		if sup.allows(Diagnostic{Analyzer: "ctxlock", Pos: arg.Pos()}) {
			continue
		}
		switch {
		case ci.kind == kindAcqPark || ci.kind == kindPolicyWait ||
			ci.kind == kindTicketSleep || ci.kind == kindLogicalAcq:
			facts.CtxBgWait = true
			facts.CtxWhat = "context." + ctor + "() into " + callName(call)
		case ci.kind == kindNone && ci.callee != nil:
			if ci.callee.Pkg() == pkg.Types {
				pending[ci.callee] = ctor
			} else if ff := crossFacts(ci.callee); ff != nil && (ff.Parks || ff.CtxBgWait) {
				facts.CtxBgWait = true
				facts.CtxWhat = "context." + ctor + "() into " + displayFunc(ci.callee, false)
			}
		}
		return
	}
}

// atomicCallFields returns the field symbols ("pkgpath.Type.field")
// whose addresses call passes as the location of a package-level
// sync/atomic function (atomic.AddUint64(&x.f, 1)) — the marks that
// put a field into atomicfield's everywhere-atomic set. Only the first
// argument counts: it is the address every sync/atomic function
// operates on, while later pointer arguments (CompareAndSwapPointer's
// old/new) and the value arguments of typed-atomic methods
// (p.Store(&x.f)) are plain values, not atomic accesses of the field.
func atomicCallFields(info *types.Info, call *ast.CallExpr) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil // a typed-atomic method: the receiver is the location
	}
	if len(call.Args) == 0 {
		return nil
	}
	if sym, _ := addrFieldSym(info, call.Args[0]); sym != "" {
		return []string{sym}
	}
	return nil
}

// addrFieldSym matches an `&x.f` argument and returns f's field symbol
// plus the selector node (so the access is not also counted as plain).
func addrFieldSym(info *types.Info, arg ast.Expr) (string, *ast.SelectorExpr) {
	ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return "", nil
	}
	se, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	return fieldSymbol(info, se), se
}

// fieldSymbol names a struct-field selection by full package path,
// owner type, and field ("repro/internal/golc.Mutex.holdSeq").
func fieldSymbol(info *types.Info, se *ast.SelectorExpr) string {
	sel, ok := info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return ""
	}
	owner := derefNamed(sel.Recv())
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + sel.Obj().Name()
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
