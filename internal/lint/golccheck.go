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

// callKind classifies one call expression by what it means to the lock
// protocol.
type callKind int

const (
	kindNone callKind = iota
	// kindAcqPark: Lock/RLock on a golc lock — a blocking acquisition
	// that may park, per the lock's policy.
	kindAcqPark
	// kindAcqTry: TryLock — non-blocking probe; holds the lock only on
	// the true branch.
	kindAcqTry
	// kindRelease: Unlock/RUnlock.
	kindRelease
	// kindHandleWait: runtime Handle.Wait — the runtime's one way to
	// park, which every golc lock's slow path calls.
	kindHandleWait
)

// callInfo is one classified call.
type callInfo struct {
	kind   callKind
	call   *ast.CallExpr
	recv   ast.Expr    // lock receiver expression (acquire/release kinds)
	read   bool        // RLock/RUnlock
	name   string      // method/function name
	callee *types.Func // resolved callee, when any (for summaries)
}

// matching release/acquire method-name pairs.
func acquireKindOf(name string) (kind callKind, read bool, ok bool) {
	switch name {
	case "Lock":
		return kindAcqPark, false, true
	case "RLock":
		return kindAcqPark, true, true
	case "TryLock":
		return kindAcqTry, false, true
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
	ci := callInfo{kind: kindNone, call: call}
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
			if n := derefNamed(recvT); n != nil && isGolcRuntimePkgPath(namedPkgPath(n)) &&
				n.Obj().Name() == "Handle" && ci.name == "Wait" {
				ci.kind = kindHandleWait
			}
			return ci
		}
		// Package-qualified function.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			ci.callee, ci.name = fn, fn.Name()
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			ci.callee, ci.name = fn, fn.Name()
		}
	}
	return ci
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

// classOf maps a lock receiver expression to its lock class: the name
// an acquire or release helper's facts (HeldDelta, Releases) give the
// lock across function boundaries. Struct fields classify as
// "pkg.Type.field" (every kv shard latch is one class); package-level
// vars as "pkg.var". Locals and parameters return "" — a lock that
// reaches a function as an opaque argument has no stable class, and
// guessing by type would pair every golc.Mutex release with any
// helper's hold.
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
