package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The analyzers key on package-path suffixes rather than the literal
// module path, so a module rename (or a fixture tree re-rooted under
// testdata) does not silently disarm the whole suite.
func isGolcPkgPath(path string) bool {
	return path == "repro/internal/golc" || strings.HasSuffix(path, "/internal/golc")
}

func isGolcRuntimePkgPath(path string) bool {
	return path == "repro/internal/golc/runtime" || strings.HasSuffix(path, "/internal/golc/runtime")
}

func isOltpPkgPath(path string) bool {
	return path == "repro/internal/oltp" || strings.HasSuffix(path, "/internal/oltp")
}

func isWalPkgPath(path string) bool {
	return path == "repro/internal/wal" || strings.HasSuffix(path, "/internal/wal")
}

// callKind classifies one call expression by what it means to the lock
// protocol.
type callKind int

const (
	kindNone callKind = iota
	// kindAcqPark: Lock/RLock/LockCtx/RLockCtx on a golc lock — a
	// blocking acquisition that may park, per the lock's policy.
	kindAcqPark
	// kindAcqNoPark: LockNested — blocking (it spins forever) but
	// never parks; the sanctioned acquire-while-holding primitive.
	kindAcqNoPark
	// kindAcqTry: TryLock/TryRLock — non-blocking probe; holds the
	// lock only on the true branch.
	kindAcqTry
	// kindRelease: Unlock/RUnlock.
	kindRelease
	// kindPolicyWait: a call of a ContentionPolicy's Wait method
	// (interface or concrete) — what golc.Wait, the seam, runs.
	kindPolicyWait
	// kindTicketSleep: runtime Ticket.Sleep/SleepCtx — the slot-pool
	// park primitive policies build on.
	kindTicketSleep
	// kindLogicalAcq: a lock-manager logical acquisition (a method or
	// function named "acquire" taking an oltp.ResourceID) — input to
	// the table→partition→record hierarchy check.
	kindLogicalAcq
)

// Logical hierarchy levels, ranked: an acquisition must never go up.
const (
	levelUnknown = -1
	levelTable   = 0
	levelPart    = 1
	levelRecord  = 2
)

var levelNames = [...]string{"table", "partition", "record"}

// callInfo is one classified call.
type callInfo struct {
	kind   callKind
	call   *ast.CallExpr
	recv   ast.Expr    // lock receiver expression (acquire/release kinds)
	read   bool        // RLock/RLockCtx/TryRLock/RUnlock
	name   string      // method/function name
	callee *types.Func // resolved callee, when any (for summaries)
	level  int         // logical hierarchy level for kindLogicalAcq
}

// matching release/acquire method-name pairs.
func acquireKindOf(name string) (kind callKind, read bool, ok bool) {
	switch name {
	case "Lock", "LockCtx":
		return kindAcqPark, false, true
	case "RLock", "RLockCtx":
		return kindAcqPark, true, true
	case "LockNested":
		return kindAcqNoPark, false, true
	case "TryLock":
		return kindAcqTry, false, true
	case "TryRLock":
		return kindAcqTry, true, true
	case "Unlock":
		return kindRelease, false, true
	case "RUnlock":
		return kindRelease, true, true
	}
	return kindNone, false, false
}

func derefNamed(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func namedPkgPath(n *types.Named) string {
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

func isContextType(t types.Type) bool {
	n := derefNamed(t)
	return n != nil && namedPkgPath(n) == "context" && n.Obj().Name() == "Context"
}

// isGolcLockType reports whether t is golc.Mutex or golc.RWMutex.
func isGolcLockType(t types.Type) bool {
	n := derefNamed(t)
	if n == nil || !isGolcPkgPath(namedPkgPath(n)) {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// classifyCall inspects one call and reports what it does to the lock
// protocol, if anything.
func classifyCall(info *types.Info, call *ast.CallExpr) callInfo {
	ci := callInfo{kind: kindNone, call: call, level: levelUnknown}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return ci
			}
			ci.callee = fn
			ci.name = fn.Name()
			recvT := sel.Recv()
			if isGolcLockType(recvT) {
				if kind, read, ok := acquireKindOf(ci.name); ok {
					ci.kind, ci.read, ci.recv = kind, read, fun.X
					return ci
				}
			}
			if isPolicyWait(fn) {
				ci.kind = kindPolicyWait
				return ci
			}
			if n := derefNamed(recvT); n != nil && isGolcRuntimePkgPath(namedPkgPath(n)) &&
				n.Obj().Name() == "Ticket" && (ci.name == "Sleep" || ci.name == "SleepCtx") {
				ci.kind = kindTicketSleep
				return ci
			}
			if ci.name == "acquire" && takesResourceID(fn) {
				ci.kind = kindLogicalAcq
				ci.level = logicalLevel(info, call)
				return ci
			}
			return ci
		}
		// Package-qualified function.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			ci.callee, ci.name = fn, fn.Name()
			if ci.name == "acquire" && takesResourceID(fn) {
				ci.kind = kindLogicalAcq
				ci.level = logicalLevel(info, call)
			}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			ci.callee, ci.name = fn, fn.Name()
			if ci.name == "acquire" && takesResourceID(fn) {
				ci.kind = kindLogicalAcq
				ci.level = logicalLevel(info, call)
			}
		}
	}
	return ci
}

// isPolicyWait reports whether fn is a ContentionPolicy's Wait method:
// the interface's own, or that of a type implementing the interface.
// The interface is found through the method's golc.Acquire parameter
// (its package declares it), the match is types.Implements on the
// receiver — so a free function or a method of some non-policy type
// that merely has Wait's shape is not one.
func isPolicyWait(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Name() != "Wait" || sig.Recv() == nil || sig.Params().Len() != 3 {
		return false
	}
	acq := derefNamed(sig.Params().At(2).Type())
	if acq == nil || !isGolcPkgPath(namedPkgPath(acq)) {
		return false
	}
	tn, _ := acq.Obj().Pkg().Scope().Lookup("ContentionPolicy").(*types.TypeName)
	if tn == nil {
		return false
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	recv := sig.Recv().Type()
	return iface != nil && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface))
}

// takesResourceID reports whether fn has an oltp.ResourceID parameter —
// the shape of a hierarchical lock-manager acquire.
func takesResourceID(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if n := derefNamed(sig.Params().At(i).Type()); n != nil &&
			isOltpPkgPath(namedPkgPath(n)) && n.Obj().Name() == "ResourceID" {
			return true
		}
	}
	return false
}

// logicalLevel extracts the hierarchy level of a logical acquire's
// ResourceID argument: a TableID/PartitionID/RecordID constructor call,
// or a composite literal with a constant Level field. Unrecognized
// shapes return levelUnknown and produce no ordering edge.
func logicalLevel(info *types.Info, call *ast.CallExpr) int {
	for _, arg := range call.Args {
		t, ok := info.Types[arg]
		if !ok {
			continue
		}
		n := derefNamed(t.Type)
		if n == nil || !isOltpPkgPath(namedPkgPath(n)) || n.Obj().Name() != "ResourceID" {
			continue
		}
		switch e := ast.Unparen(arg).(type) {
		case *ast.CallExpr:
			name := ""
			switch f := e.Fun.(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
			switch name {
			case "TableID":
				return levelTable
			case "PartitionID":
				return levelPart
			case "RecordID":
				return levelRecord
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if k, ok := kv.Key.(*ast.Ident); !ok || k.Name != "Level" {
					continue
				}
				switch v := ast.Unparen(kv.Value).(type) {
				case *ast.Ident:
					return levelByName(v.Name)
				case *ast.SelectorExpr:
					return levelByName(v.Sel.Name)
				}
			}
		}
		return levelUnknown
	}
	return levelUnknown
}

func levelByName(name string) int {
	switch name {
	case "LevelTable":
		return levelTable
	case "LevelPartition":
		return levelPart
	case "LevelRecord":
		return levelRecord
	}
	return levelUnknown
}

// displayFunc names fn for a report: bare name inside its own package,
// package-qualified elsewhere (methods keep their receiver type).
func displayFunc(fn *types.Func, samePkg bool) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := derefNamed(sig.Recv().Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	if samePkg || fn.Pkg() == nil {
		return name
	}
	return fn.Pkg().Name() + "." + name
}

// lockKeyOf renders the receiver expression as the intra-procedural
// identity of a lock ("sh.mu", "s.stripes[i].mu"). Textual identity is
// deliberate: it pairs an acquire with the release written against the
// same expression, which is exactly the pairing a reader checks.
func lockKeyOf(recv ast.Expr, read bool) string {
	suffix := "/W"
	if read {
		suffix = "/R"
	}
	return types.ExprString(recv) + suffix
}

// classOf maps a lock receiver expression to its acquisition-order
// class. Struct fields classify as "pkg.Type.field" (every kv shard
// latch is one class); package-level vars as "pkg.var". Locals and
// parameters return "" — a lock that reaches a function as an opaque
// argument has no stable class, and guessing by type would fuse every
// golc.Mutex in the program into one node.
func classOf(info *types.Info, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			owner := derefNamed(sel.Recv())
			if owner == nil || owner.Obj().Pkg() == nil {
				return ""
			}
			return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + sel.Obj().Name()
		}
		// Package-qualified var: pkg.Mu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && !v.IsField() && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}
