package lint

import (
	"go/ast"
	"go/types"
)

// Ctxlock guards the client's way out of a logical wait: a request
// whose client has gone ends its lock waits by cancelling the context
// they run under, so a wait rooted at context.Background() in a path
// that *has* a real deadline/cancel context cannot be cancelled. Three
// rules, all active only when a real context is in scope (a
// context.Context parameter, a parameter with a Context() method such
// as *http.Request, or a parameter carrying a context field such as an
// oltp txn):
//
//  1. context.Background()/context.TODO() must not be passed where a
//     context.Context is expected (RunCtx, context.WithCancel, ...);
//  2. calling a method M when a drop-in M+"Ctx" variant exists (same
//     receiver, leading context parameter, both returning error) —
//     e.g. DB.Run vs DB.RunCtx in a request handler;
//  3. calling a function whose whole-program facts (FuncFacts.CtxBgWait)
//     say it roots a transitively-parking wait at Background/TODO —
//     the cross-package form of rule 1, caught through the callee's facts
//     even when the Background call is buried packages away.
//
// Rule 2's both-return-error gate is deliberate: a void M next to an
// erroring M+"Ctx" is a contract change, not a drop-in. golc's locks
// have no Ctx variants at all: physical waits are uncancellable by
// design. Rule 3 inherits the same exemptions at fact-generation time:
// functions with a *Ctx sibling, and functions that have a real
// context of their own (rule 1 fires there instead).
var Ctxlock = &Analyzer{
	Name: "ctxlock",
	Doc: "paths that have a real deadline/cancel context (request handlers, txn " +
		"paths) must thread it into context-aware acquisition instead of " +
		"context.Background()/TODO(); the client's context cancels its own " +
		"logical waits, and a Background-rooted wait cannot be cancelled.",
	Run: runCtxlock,
}

func runCtxlock(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var sources []string
			if fd.Recv != nil {
				sources = appendCtxSources(pass.Pkg.Info, sources, fd.Recv)
			}
			sources = appendCtxSources(pass.Pkg.Info, sources, fd.Type.Params)
			visitCtxBody(pass, fd.Body, sources)
		}
	}
	return nil
}

// appendCtxSources scans a parameter list for usable context sources.
func appendCtxSources(info *types.Info, sources []string, params *ast.FieldList) []string {
	if params == nil {
		return sources
	}
	for _, field := range params.List {
		for _, name := range field.Names {
			if name.Name == "_" || name.Name == "" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			switch {
			case isContextType(t):
				sources = append(sources, name.Name)
			case hasContextMethod(t):
				sources = append(sources, name.Name+".Context()")
			case hasContextField(t):
				sources = append(sources, "the context carried by "+name.Name)
			}
		}
	}
	return sources
}

func hasContextMethod(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Context")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 && isContextType(sig.Results().At(0).Type())
}

func hasContextField(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// visitCtxBody checks one function body; nested literals inherit the
// enclosing sources (closures capture them) plus their own parameters.
func visitCtxBody(pass *Pass, body *ast.BlockStmt, sources []string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := appendCtxSources(pass.Pkg.Info, append([]string(nil), sources...), n.Type.Params)
			visitCtxBody(pass, n.Body, inner)
			return false
		case *ast.CallExpr:
			if len(sources) > 0 {
				checkCtxCall(pass, n, sources[0])
			}
		}
		return true
	})
}

func checkCtxCall(pass *Pass, call *ast.CallExpr, src string) {
	info := pass.Pkg.Info
	// Rule 1: Background()/TODO() fed to a context.Context parameter.
	sig := calleeSignature(info, call)
	if sig != nil {
		for i, arg := range call.Args {
			name := backgroundOrTODO(info, arg)
			if name == "" {
				continue
			}
			if pt := paramTypeAt(sig, i); pt != nil && isContextType(pt) {
				pass.Reportf(arg.Pos(),
					"context.%s() passed to %s while %s is in scope: waits rooted here cannot be cancelled or deadline-killed",
					name, callName(call), src)
			}
		}
	}
	// Rule 3: the callee's whole-program facts root a parking wait at
	// Background/TODO with no context of its own to thread.
	if ci := classifyCall(info, call); ci.kind == kindNone && ci.callee != nil {
		if ff := pass.FactsOf(ci.callee); ff != nil && ff.CtxBgWait {
			pass.Reportf(call.Pos(),
				"call to %s waits on a lock rooted at %s while %s is in scope: that wait cannot be cancelled or deadline-killed",
				displayFunc(ci.callee, ci.callee.Pkg() == pass.Pkg.Types), ff.CtxWhat, src)
		}
	}
	// Rule 2: a drop-in Ctx variant exists for this method call.
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	sel, ok := info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return
	}
	fn, _ := sel.Obj().(*types.Func)
	if fn == nil || sig == nil || !returnsError(sig) || hasCtxParam(sig) {
		return
	}
	obj, _, _ := types.LookupFieldOrMethod(sel.Recv(), true, fn.Pkg(), fn.Name()+"Ctx")
	ctxFn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	ctxSig := ctxFn.Type().(*types.Signature)
	if ctxSig.Params().Len() >= 1 && isContextType(ctxSig.Params().At(0).Type()) && returnsError(ctxSig) {
		pass.Reportf(call.Pos(),
			"%s has a context-aware variant %s: pass %s so the wait can be cancelled",
			fn.Name(), fn.Name()+"Ctx", src)
	}
}

func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return last
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// backgroundOrTODO reports "Background"/"TODO" if arg is a direct call
// to that context constructor.
func backgroundOrTODO(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, _ := info.Uses[fun.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

func returnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if named := sig.Results().At(i).Type(); named.String() == "error" {
			return true
		}
	}
	return false
}

func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return types.ExprString(f)
	}
	return "call"
}
