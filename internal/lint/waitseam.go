package lint

import (
	"go/ast"
	"go/types"
)

// Waitseam pins the flight recorder's one-seam guarantee: golc.Wait is
// the only caller of a ContentionPolicy's Wait method. That function
// holds the bracket (runtime.Handle.BeginWait before, Waiting.End
// after) the wait histograms and the blame profiler's who-blocks-whom
// edges are built from, so a policy wait started anywhere else is
// contention the whole observability stack silently never sees. Policy
// implementations may delegate to another policy from their own Wait —
// they are inside the seam, not callers of it.
var Waitseam = &Analyzer{
	Name: "waitseam",
	Doc: "a ContentionPolicy's Wait method is called only by golc.Wait (and by " +
		"another policy's Wait, delegating); a policy wait outside the seam is " +
		"invisible to the flight recorder's histograms and the contention blame " +
		"profiler. Methods are matched by identity, not by shape.",
	Run: runWaitseam,
}

func runWaitseam(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		if fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func); fn != nil && (isPolicyWait(fn) || isSeamFunc(fn)) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if ci := classifyCall(pass.Pkg.Info, call); ci.kind == kindPolicyWait {
					pass.Reportf(call.Pos(),
						"policy %s called outside golc.Wait: an unseamed wait is invisible to the flight recorder and the blame profiler — call golc.Wait(ctx, h, policy, acquire) instead",
						ci.name)
				}
			}
			return true
		})
	})
	return nil
}

// isSeamFunc reports whether fn is the package-level function
// golc.Wait.
func isSeamFunc(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return fn.Name() == "Wait" && sig != nil && sig.Recv() == nil &&
		fn.Pkg() != nil && isGolcPkgPath(fn.Pkg().Path())
}
