package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Lockpair flags a golc acquisition that some path out of the function
// fails to release. The walker is defer-aware (both `defer mu.Unlock()`
// and releases inside a `defer func(){...}()` literal count) and credits
// TryLock holds only to the branch the probe guards, so the standard
//
//	if mu.TryLock() { defer mu.Unlock(); ... }
//
// shape passes clean. Functions that intentionally return holding a
// lock (acquire helpers) are the reason //lint:allow exists. The walker
// does not follow goto, so every goto is a finding of its own: a path
// it hides could leak a lock unseen.
var Lockpair = &Analyzer{
	Name: "lockpair",
	Doc: "golc Lock/RLock/TryLock acquisitions must be released on every path " +
		"out of the acquiring function (defer-aware). An acquisition that escapes a " +
		"function without its Unlock/RUnlock is either a leak — every later acquirer " +
		"parks forever, and with the load-controlled policy the whole sleep buffer drains — " +
		"or an acquire-helper contract that must be recorded with //lint:allow. The walker " +
		"does not follow goto, so every goto is reported: restructure it.",
	Run: runLockpair,
}

func runLockpair(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.GOTO {
				pass.Reportf(b.Pos(), "goto %s: lclint does not follow goto, so the locks held along it go unchecked; restructure with a loop, a labeled break or a helper function",
					b.Label.Name)
			}
			return true
		})
		type leak struct {
			h    heldLock
			exit token.Pos
		}
		// First leaking exit per acquisition site; one report per
		// acquire, not one per path.
		leaks := make(map[token.Pos]leak)
		var order []token.Pos
		walkFunc(pass.Pkg.Info, fd.Body, hooks{
			onExit: func(pos token.Pos, held []heldLock) {
				for _, h := range held {
					if h.key == "" {
						continue
					}
					if _, ok := leaks[h.pos]; !ok {
						leaks[h.pos] = leak{h, pos}
						order = append(order, h.pos)
					}
				}
			},
		})
		for _, p := range order {
			lk := leaks[p]
			recv := strings.TrimSuffix(strings.TrimSuffix(lk.h.key, "/W"), "/R")
			rel := "Unlock"
			if lk.h.read {
				rel = "RUnlock"
			}
			pass.Reportf(p, "%s.%s() is not released on every path: function can exit at line %d without %s.%s()",
				recv, lk.h.name, pass.Pkg.Fset.Position(lk.exit).Line, recv, rel)
		}
	})
	return nil
}
