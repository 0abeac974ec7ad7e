package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockpair flags a golc acquisition that some path out of the function
// fails to release: a direct Lock/RLock, a TryLock on the branch its
// probe guards,
//
//	if mu.TryLock() { ...; mu.Unlock() }
//
// or a call to an acquire helper whose facts say it returns holding a
// lock class. Functions that intentionally return holding a lock
// (acquire helpers) are the reason //lint:allow exists. The walker
// models only the Go this tree writes, so lockpair also reports each
// construct it does not model (unmodelled): a path it hides could leak
// a lock, or park holding one, unseen.
var Lockpair = &Analyzer{
	Name: "lockpair",
	Doc: "golc Lock/RLock/TryLock acquisitions, and acquire-helper calls, must be released " +
		"explicitly on every path out of the acquiring function. An acquisition that escapes a " +
		"function without its Unlock/RUnlock is either a leak — every later acquirer " +
		"parks forever, and with the load-controlled policy the whole sleep buffer drains — " +
		"or an acquire-helper contract that must be recorded with //lint:allow. The walker " +
		"does not model goto, labeled break/continue, deferred releases, or a TryLock that is " +
		"not the whole condition of an if, so each of those is reported: restructure it.",
	Run: runLockpair,
}

func runLockpair(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		unmodelled(pass, fd.Body)
		type leak struct {
			h    heldLock
			exit token.Pos
		}
		// First leaking exit per acquisition site; one report per
		// acquire, not one per path.
		leaks := make(map[token.Pos]leak)
		var order []token.Pos
		walkFunc(pass.Pkg.Info, fd.Body, pass.FactsOf, hooks{
			onExit: func(pos token.Pos, held []heldLock) {
				for _, h := range held {
					if _, ok := leaks[h.pos]; !ok {
						leaks[h.pos] = leak{h, pos}
						order = append(order, h.pos)
					}
				}
			},
		})
		for _, p := range order {
			lk := leaks[p]
			line := pass.Pkg.Fset.Position(lk.exit).Line
			if lk.h.synthetic {
				pass.Reportf(p, "%s returns holding %s, which is not released on every path: function can exit at line %d without releasing it",
					lk.h.name, lk.h.class, line)
				continue
			}
			recv := strings.TrimSuffix(strings.TrimSuffix(lk.h.key, "/W"), "/R")
			rel := "Unlock"
			if lk.h.read {
				rel = "RUnlock"
			}
			pass.Reportf(p, "%s.%s() is not released on every path: function can exit at line %d without %s.%s()",
				recv, lk.h.name, line, recv, rel)
		}
	})
	return nil
}

// unmodelled reports each construct in body that the walker does not
// model: a labeled branch (goto included), a deferred golc release, and
// a TryLock that is not the whole condition of an if.
func unmodelled(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	probes := make(map[*ast.CallExpr]bool) // TryLocks that are a whole if condition
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Label == nil {
				break
			}
			what := "goto"
			if n.Tok != token.GOTO {
				what = "a labeled " + n.Tok.String()
			}
			pass.Reportf(n.Pos(), "%s %s: lclint does not follow %s, so the locks held along it go unchecked; restructure with a plain loop or a helper function",
				n.Tok, n.Label.Name, what)
		case *ast.DeferStmt:
			if rel := deferredRelease(info, n); rel != nil {
				pass.Reportf(rel.Pos(), "deferred %s(): lclint does not follow deferred releases, so the locks held until it runs go unchecked; release explicitly on each path",
					types.ExprString(rel.Fun))
			}
		case *ast.IfStmt:
			if ci, ok := tryCond(info, n.Cond); ok {
				probes[ci.call] = true
			}
		case *ast.CallExpr:
			if ci := classifyCall(info, n); ci.kind == kindAcqTry && !probes[n] {
				recv := types.ExprString(ci.recv)
				pass.Reportf(n.Pos(), "%s.TryLock() outside `if %s.TryLock() {`: lclint credits a TryLock's hold only to the branch that form guards; test the probe as the whole if condition",
					recv, recv)
			}
		}
		return true
	})
}
