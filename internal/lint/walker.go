package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one lock known to be held at a program point.
type heldLock struct {
	key       string    // intra-procedural identity (lockKeyOf); "" for synthetic holds
	class     string    // lock class (classOf); may be ""
	read      bool      // reader-side hold
	synthetic bool      // injected from a callee's HeldDelta facts, not acquired here
	name      string    // acquiring method name ("Lock", "TryLock", ...), or "call to f" for synthetic holds
	pos       token.Pos // acquisition site
}

// hooks receives walker events. The `second` flag marks events from the
// second pass over a loop body (the pass that exposes iteration-carried
// holds); analyzers whose first-pass findings already cover it ignore
// it.
type hooks struct {
	// onAcquire fires for every golc acquire (all kinds), with the
	// locks held *before* this acquisition.
	onAcquire func(ci callInfo, held []heldLock, second bool)
	// onPark fires for non-acquire park points: the runtime's
	// Handle.Wait.
	onPark func(ci callInfo, held []heldLock, second bool)
	// onCall fires for calls the classifier does not recognize —
	// candidates for the whole-program call summaries.
	onCall func(ci callInfo, held []heldLock, second bool)
	// onChanOp fires for blocking channel operations: send, receive,
	// range-over-channel, select with no default case. Operations
	// inside a select's comm clauses report once at the select.
	onChanOp func(pos token.Pos, what string, held []heldLock, second bool)
	// onExit fires at every function exit (return, panic, fallthrough
	// off the end) with the locks still held there. First pass only.
	onExit func(pos token.Pos, held []heldLock)
}

// walkState is the abstract state at one program point.
type walkState struct {
	held []heldLock // acquisition-ordered
}

func (s *walkState) clone() *walkState {
	return &walkState{held: append([]heldLock(nil), s.held...)}
}

// merge unions two states: a lock held on either branch is treated as
// held after the join (over-approximation — the analyzers' reports are
// "on some path" claims).
func merge(a, b *walkState) *walkState {
	out := a.clone()
	haveKey := make(map[string]bool, len(out.held))
	for _, h := range out.held {
		haveKey[h.key+"\x00"+h.name] = true
	}
	for _, h := range b.held {
		if !haveKey[h.key+"\x00"+h.name] {
			out.held = append(out.held, h)
		}
	}
	return out
}

func (s *walkState) add(h heldLock) {
	s.held = append(s.held, h)
}

// releaseKey removes the most recent hold with the given textual key;
// reports whether one was found.
func (s *walkState) releaseKey(key string) bool {
	if key == "" {
		return false
	}
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return true
		}
	}
	return false
}

// releaseClass removes the most recent *synthetic* hold of the given
// class — a release with no matching textual acquire pairs with an
// acquire-helper's injected hold.
func (s *walkState) releaseClass(class string) {
	if class == "" {
		return
	}
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].synthetic && s.held[i].class == class {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

// branchTarget is one enclosing breakable statement (loop, switch,
// select) on the walker's stack; an unlabeled break/continue registers
// the state that leaves through it.
type branchTarget struct {
	loop      bool // continue-able (for/range)
	breaks    []*walkState
	continues []*walkState
}

// walker runs the held-set abstract interpretation over one function
// body. It is deliberately intra-procedural; cross-function effects
// come from the facts summaries — consumed by the analyzers at call
// sites, and (for acquire/release helpers' held-set deltas) injected
// into the walk itself via the summary hook.
//
// It models only the Go this tree writes. A path ends, unchecked, at
// each construct it does not model — a labeled branch (goto included)
// or a deferred golc release — and a TryLock anywhere but as a whole
// if condition grants no hold. lockpair reports each of these (see
// unmodelled), so with lockpair in the run nestedpark and heldcall stay
// sound without modelling them.
type walker struct {
	info    *types.Info
	hooks   hooks
	summary func(*types.Func) *FuncFacts
	second  int // >0 inside a second loop-body pass
	targets []*branchTarget
	inComm  int // >0 inside a select comm clause (suppresses per-op chan events)
}

// walkFunc analyzes one function body from an empty held set. A call
// to a function whose summary declares a held-set delta (acquire
// helper) or unmatched releases (release helper) mutates the abstract
// held set at the call site, so the caller's later exits and
// acquisitions see through the helper.
func walkFunc(info *types.Info, body *ast.BlockStmt, summary func(*types.Func) *FuncFacts, hooks hooks) {
	if body == nil {
		return
	}
	w := &walker{info: info, hooks: hooks, summary: summary}
	st := &walkState{}
	if !w.block(body, st) {
		w.exit(body.Rbrace, st)
	}
}

// subWalk analyzes a nested function literal's body from an empty held
// set, preserving the summary hook.
func (w *walker) subWalk(body *ast.BlockStmt) {
	walkFunc(w.info, body, w.summary, w.hooks)
}

func (w *walker) exit(pos token.Pos, st *walkState) {
	if w.second == 0 && w.hooks.onExit != nil {
		w.hooks.onExit(pos, st.held)
	}
}

func (w *walker) chanOp(pos token.Pos, what string, st *walkState) {
	if w.inComm > 0 || w.hooks.onChanOp == nil {
		return
	}
	w.hooks.onChanOp(pos, what, append([]heldLock(nil), st.held...), w.second > 0)
}

// findTarget resolves an unlabeled break (needLoop=false) or continue
// (needLoop=true) to its innermost enclosing target.
func (w *walker) findTarget(needLoop bool) *branchTarget {
	for i := len(w.targets) - 1; i >= 0; i-- {
		if t := w.targets[i]; t.loop || !needLoop {
			return t
		}
	}
	return nil
}

// block walks a statement list; returns true if every path terminates
// (return/panic/branch) before falling off the end.
func (w *walker) block(b *ast.BlockStmt, st *walkState) bool {
	return w.stmtList(b.List, st)
}

func (w *walker) stmtList(list []ast.Stmt, st *walkState) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt walks one statement; returns true if control does not fall
// through to the next statement.
func (w *walker) stmt(s ast.Stmt, st *walkState) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
		return isTerminalCall(w.info, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.expr(e, st)
		}
		for _, e := range s.Rhs {
			w.expr(e, st)
		}
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, st)
					}
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, st)
		}
		w.exit(s.Pos(), st)
		return true
	case *ast.DeferStmt:
		if deferredRelease(w.info, s) != nil {
			return true // not modelled: lockpair reports it
		}
		w.exprArgsOnly(s.Call, st)
		return false
	case *ast.GoStmt:
		// The goroutine body runs with its own (empty) held set; the
		// spawning function's locks are not held *by* the goroutine.
		w.exprArgsOnly(s.Call, st)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.subWalk(lit.Body)
		}
		return false
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		return w.forStmt(s, st)
	case *ast.RangeStmt:
		return w.rangeStmt(s, st)
	case *ast.SwitchStmt:
		return w.switchStmt(s, st)
	case *ast.TypeSwitchStmt:
		return w.typeSwitchStmt(s, st)
	case *ast.SelectStmt:
		return w.selectStmt(s, st)
	case *ast.BranchStmt:
		return w.branchStmt(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
		w.chanOp(s.Arrow, "channel send", st)
		return false
	case *ast.IncDecStmt:
		w.expr(s.X, st)
		return false
	}
	return false
}

// branchStmt records the departing state with its target: break and
// continue states rejoin the walk where the target statement ends (or
// iterates). A labeled branch (goto included) is not followed — its
// path ends here, and lockpair reports the branch itself.
func (w *walker) branchStmt(s *ast.BranchStmt, st *walkState) bool {
	if s.Label != nil {
		return true
	}
	switch s.Tok {
	case token.BREAK:
		if tgt := w.findTarget(false); tgt != nil {
			tgt.breaks = append(tgt.breaks, st.clone())
		}
	case token.CONTINUE:
		if tgt := w.findTarget(true); tgt != nil {
			tgt.continues = append(tgt.continues, st.clone())
		}
	}
	// fallthrough (in a case body) is handled by caseClauses' merge.
	return true
}

func (w *walker) forStmt(s *ast.ForStmt, st *walkState) bool {
	if s.Init != nil {
		w.stmt(s.Init, st)
	}
	if s.Cond != nil {
		w.expr(s.Cond, st)
	}
	// A for without a condition runs its body at least once, and — per
	// the spec's terminating-statement rule — never falls through
	// unless something breaks out of it.
	return w.loopBody(s.Body, s.Post, st, s.Cond == nil)
}

func (w *walker) rangeStmt(s *ast.RangeStmt, st *walkState) bool {
	w.expr(s.X, st)
	if isChanExpr(w.info, s.X) {
		w.chanOp(s.For, "range over channel", st)
	}
	return w.loopBody(s.Body, nil, st, false)
}

func (w *walker) switchStmt(s *ast.SwitchStmt, st *walkState) bool {
	if s.Init != nil {
		w.stmt(s.Init, st)
	}
	if s.Tag != nil {
		w.expr(s.Tag, st)
	}
	return w.caseClauses(s.Body, st)
}

func (w *walker) typeSwitchStmt(s *ast.TypeSwitchStmt, st *walkState) bool {
	if s.Init != nil {
		w.stmt(s.Init, st)
	}
	w.stmt(s.Assign, st)
	return w.caseClauses(s.Body, st)
}

func (w *walker) selectStmt(s *ast.SelectStmt, st *walkState) bool {
	if !selectHasDefault(s) {
		w.chanOp(s.Select, "select with no default case", st)
	}
	return w.commClauses(s.Body, st)
}

// ifStmt credits a TryLock hold to the branch its probe guards. The
// one TryLock shape the walker models is the whole condition,
//
//	if mu.TryLock() { <held> }
//
// and lockpair reports a TryLock anywhere else.
func (w *walker) ifStmt(s *ast.IfStmt, st *walkState) bool {
	if s.Init != nil {
		w.stmt(s.Init, st)
	}
	w.expr(s.Cond, st)
	thenSt := st.clone()
	elseSt := st.clone()
	if ci, ok := tryCond(w.info, s.Cond); ok {
		thenSt.add(heldFromCall(w.info, ci))
	}
	thenTerm := w.block(s.Body, thenSt)
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.stmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*st = *elseSt
	case elseTerm:
		*st = *thenSt
	default:
		*st = *merge(thenSt, elseSt)
	}
	return false
}

// tryCond reports whether an if condition is exactly a TryLock probe.
func tryCond(info *types.Info, cond ast.Expr) (callInfo, bool) {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return callInfo{}, false
	}
	ci := classifyCall(info, call)
	return ci, ci.kind == kindAcqTry
}

// loopBody analyzes a loop body twice: once from the entry state, once
// from the merged after-one-iteration state. The second pass is what
// exposes iteration-carried holds (a Lock in iteration i still held
// when iteration i+1 acquires) to nestedpark; its events are flagged so
// analyzers that would double-report can skip them. Continue states
// rejoin before the post statement; break states rejoin the fall-out
// state. Returns true when the loop is a terminating statement (no
// condition, no break out of it).
func (w *walker) loopBody(body *ast.BlockStmt, post ast.Stmt, st *walkState, mustRun bool) bool {
	tgt := &branchTarget{loop: true}
	w.targets = append(w.targets, tgt)

	// iterate walks the body once from entry; the returned state is the
	// union of everything that reaches the loop's iteration point (body
	// fall-through plus continue states, then the post statement), or
	// nil when every path out of the body breaks, returns, or jumps —
	// the loop then never comes back around on its own.
	iterate := func(entry *walkState) *walkState {
		s := entry.clone()
		reaches := !w.block(body, s)
		conts := tgt.continues
		tgt.continues = nil
		for _, c := range conts {
			if reaches {
				s = merge(s, c)
			} else {
				s = c.clone()
				reaches = true
			}
		}
		if !reaches {
			return nil
		}
		if post != nil {
			w.stmt(post, s)
		}
		return s
	}

	first := iterate(st)
	var after *walkState
	switch {
	case first == nil && mustRun:
		after = nil // only the recorded breaks leave the loop
	case first == nil:
		after = st.clone() // zero-trip exit only
	case mustRun:
		after = first // no zero-trip path: for {} bodies always run
	default:
		after = merge(st, first)
	}

	if after != nil {
		w.second++
		again := iterate(after)
		w.second--
		if again != nil {
			after = merge(after, again)
		}
	}

	w.targets = w.targets[:len(w.targets)-1]
	out := after
	for _, b := range tgt.breaks {
		if out == nil {
			out = b
		} else {
			out = merge(out, b)
		}
	}
	if out != nil {
		*st = *out
	}
	return mustRun && len(tgt.breaks) == 0
}

// caseClauses walks switch cases; the result state is the union of all
// falling-through branches (plus the no-case-taken path when there is
// no default, plus any break states).
func (w *walker) caseClauses(body *ast.BlockStmt, st *walkState) bool {
	tgt := &branchTarget{}
	w.targets = append(w.targets, tgt)

	hasDefault := false
	var fallthroughs []*walkState
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cs := st.clone()
		for _, e := range cc.List {
			w.expr(e, cs)
		}
		if !w.stmtList(cc.Body, cs) {
			fallthroughs = append(fallthroughs, cs)
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	fallthroughs = append(fallthroughs, tgt.breaks...)
	if !hasDefault {
		fallthroughs = append(fallthroughs, st.clone())
	}
	if len(fallthroughs) == 0 {
		return true
	}
	out := fallthroughs[0]
	for _, f := range fallthroughs[1:] {
		out = merge(out, f)
	}
	*st = *out
	return false
}

func (w *walker) commClauses(body *ast.BlockStmt, st *walkState) bool {
	tgt := &branchTarget{}
	w.targets = append(w.targets, tgt)

	var fallthroughs []*walkState
	for _, c := range body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cs := st.clone()
		if cc.Comm != nil {
			w.inComm++
			w.stmt(cc.Comm, cs)
			w.inComm--
		}
		if !w.stmtList(cc.Body, cs) {
			fallthroughs = append(fallthroughs, cs)
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	fallthroughs = append(fallthroughs, tgt.breaks...)
	if len(fallthroughs) == 0 {
		return true
	}
	out := fallthroughs[0]
	for _, f := range fallthroughs[1:] {
		out = merge(out, f)
	}
	*st = *out
	return false
}

// deferredRelease returns the golc release a defer runs — the deferred
// call itself, or any release inside a deferred function literal — or
// nil. The walker does not model deferred releases.
func deferredRelease(info *types.Info, s *ast.DeferStmt) *ast.CallExpr {
	if classifyCall(info, s.Call).kind == kindRelease {
		return s.Call
	}
	lit, ok := s.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var rel *ast.CallExpr
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && rel == nil && classifyCall(info, call).kind == kindRelease {
			rel = call
		}
		return rel == nil
	})
	return rel
}

// expr walks an expression, firing events for every classified call in
// evaluation order. Function literals are analyzed as separate functions
// with an empty held set (the literal may run at any time, not at its
// textual position).
func (w *walker) expr(e ast.Expr, st *walkState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.subWalk(n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.expr(n.X, st)
				w.chanOp(n.OpPos, "channel receive", st)
				return false
			}
		case *ast.CallExpr:
			ci := classifyCall(w.info, n)
			if ci.kind != kindNone || ci.callee != nil {
				// Walk arguments first (evaluation order), then fire.
				// Unclassified-but-resolved calls fire onCall so the
				// analyzers can consult their call-graph summaries.
				for _, a := range n.Args {
					w.expr(a, st)
				}
				w.fire(ci, st)
				return false
			}
		}
		return true
	})
}

// exprArgsOnly walks only the arguments of a call (used for go/defer,
// where the call itself runs elsewhere).
func (w *walker) exprArgsOnly(call *ast.CallExpr, st *walkState) {
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

func heldFromCall(info *types.Info, ci callInfo) heldLock {
	return heldLock{name: ci.name, read: ci.read, pos: ci.call.Pos(),
		key: lockKeyOf(ci.recv, ci.read), class: classOf(info, ci.recv)}
}

// fire dispatches one classified call against the current state.
func (w *walker) fire(ci callInfo, st *walkState) {
	second := w.second > 0
	switch ci.kind {
	case kindAcqPark:
		if w.hooks.onAcquire != nil {
			w.hooks.onAcquire(ci, append([]heldLock(nil), st.held...), second)
		}
		st.add(heldFromCall(w.info, ci))
	case kindAcqTry:
		// ifStmt credits the hold to the branch the probe guards.
		if w.hooks.onAcquire != nil {
			w.hooks.onAcquire(ci, append([]heldLock(nil), st.held...), second)
		}
	case kindRelease:
		if !st.releaseKey(lockKeyOf(ci.recv, ci.read)) {
			// No textual acquire in this function: the release may pair
			// with a hold injected from an acquire-helper's facts.
			st.releaseClass(classOf(w.info, ci.recv))
		}
	case kindHandleWait:
		if w.hooks.onPark != nil {
			w.hooks.onPark(ci, append([]heldLock(nil), st.held...), second)
		}
	default:
		if w.hooks.onCall != nil {
			w.hooks.onCall(ci, append([]heldLock(nil), st.held...), second)
		}
		if ci.callee != nil {
			if ff := w.summary(ci.callee); ff != nil {
				for _, c := range ff.Releases {
					st.releaseClass(c)
				}
				for _, c := range ff.HeldDelta {
					st.add(heldLock{
						class:     c,
						synthetic: true,
						name:      "call to " + ci.callee.Name(),
						pos:       ci.call.Pos(),
					})
				}
			}
		}
	}
}

// isTerminalCall recognizes calls that do not return: panic, os.Exit,
// runtime.Goexit, (log.Logger).Fatal*, testing Fatal/FailNow.
func isTerminalCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		name, pkg := fn.Name(), fn.Pkg().Path()
		switch {
		case pkg == "os" && name == "Exit",
			pkg == "runtime" && name == "Goexit",
			pkg == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln" ||
				name == "Panic" || name == "Panicf" || name == "Panicln"):
			return true
		}
	}
	return false
}

// forEachFuncDecl walks every function declaration in the package.
func forEachFuncDecl(pkg *Package, visit func(fd *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
