package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Policyreg keeps the golc policy registry deterministic: RegisterPolicy
// mutates a process-global map, so calling it anywhere but init or main
// makes registration order (and PolicyByName results, and the
// conformance sweep's coverage) depend on runtime control flow. It also
// reports statically-resolvable name collisions — two registered policy
// types whose Name() methods return the same literal — and registrations
// that shadow the built-in names, which RegisterPolicy would reject
// only at runtime.
var Policyreg = &Analyzer{
	Name: "policyreg",
	Doc: "golc.RegisterPolicy must be called from init or main only (the registry " +
		"is process-global; late registration makes policy lookup order-dependent), " +
		"policy names must be unique, and the built-in names (spin, block, lc) " +
		"are off limits.",
	Run:   runPolicyreg,
	Begin: beginPolicyreg,
	End:   endPolicyreg,
}

// Built-in policy names, mirrored from golc/policy.go. The golc package
// itself is exempt — it registers the built-ins.
var reservedPolicyNames = map[string]bool{"spin": true, "block": true, "lc": true}

type policyReg struct {
	pos  token.Pos
	site string // file:line, for cross-referencing duplicates
}

var policyRegs map[string][]policyReg

func beginPolicyreg() {
	policyRegs = make(map[string][]policyReg)
}

func runPolicyreg(pass *Pass) error {
	nameLits := policyNameLiterals(pass.Pkg)
	inGolc := isGolcPkgPath(pass.Pkg.ImportPath)

	checkCall := func(call *ast.CallExpr, enclosing string) {
		ci := classifyCall(pass.Pkg.Info, call)
		if ci.kind != kindRegister {
			return
		}
		if enclosing != "init" && enclosing != "main" {
			pass.Reportf(call.Pos(),
				"RegisterPolicy called from %s: the policy registry is process-global, register from init or main only",
				enclosing)
		}
		if len(call.Args) != 1 {
			return
		}
		n := derefNamed(pass.Pkg.Info.Types[call.Args[0]].Type)
		if n == nil {
			return
		}
		name, ok := nameLits[n.Obj()]
		if !ok {
			return
		}
		if reservedPolicyNames[name] && !inGolc {
			pass.Reportf(call.Pos(),
				"policy name %q collides with a built-in policy; RegisterPolicy will fail at runtime", name)
		}
		p := pass.Pkg.Fset.Position(call.Pos())
		policyRegs[name] = append(policyRegs[name], policyReg{
			pos:  call.Pos(),
			site: p.Filename + ":" + strconv.Itoa(p.Line),
		})
	}

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				// Calls inside nested literals are attributed to the
				// outermost declared function: a closure built in a
				// non-init function can run at any time.
				ast.Inspect(d.Body, func(node ast.Node) bool {
					if call, ok := node.(*ast.CallExpr); ok {
						checkCall(call, d.Name.Name)
					}
					return true
				})
			case *ast.GenDecl:
				// Package-level `var _ = golc.RegisterPolicy(...)` runs
				// at init time; allowed, but still joins the name index.
				ast.Inspect(d, func(node ast.Node) bool {
					if call, ok := node.(*ast.CallExpr); ok {
						checkCall(call, "init")
					}
					return true
				})
			}
		}
	}
	return nil
}

func endPolicyreg(report func(Diagnostic)) {
	for name, regs := range policyRegs {
		if len(regs) < 2 {
			continue
		}
		for i, r := range regs {
			other := regs[(i+1)%len(regs)]
			report(Diagnostic{
				Analyzer: "policyreg",
				Pos:      r.pos,
				Message: "duplicate policy name " + strconv.Quote(name) +
					": also registered at " + other.site + "; the second RegisterPolicy fails at runtime",
			})
		}
	}
}

// policyNameLiterals maps a named type declared in this package to the
// string literal its Name() method returns, when that method is a
// single `return "literal"`. Anything fancier is unresolvable and the
// type simply skips duplicate checking.
func policyNameLiterals(pkg *Package) map[*types.TypeName]string {
	out := make(map[*types.TypeName]string)
	forEachFuncDecl(pkg, func(fd *ast.FuncDecl) {
		if fd.Recv == nil || fd.Name.Name != "Name" || len(fd.Body.List) != 1 {
			return
		}
		ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return
		}
		lit, ok := ast.Unparen(ret.Results[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return
		}
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return
		}
		if n := derefNamed(sig.Recv().Type()); n != nil {
			out[n.Obj()] = name
		}
	})
	return out
}
