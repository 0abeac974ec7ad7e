package lint

import (
	"go/ast"
	"strings"
)

// Nestedpark enforces the runtime's founding rule: a goroutine holding
// a golc lock must never park, because with the load-controlled policy
// a parked holder holds a sleep claim while every thread queued on its
// lock takes more — the admission controller interprets the stall as
// load and collapses the sleep buffer. Acquire-while-holding must use
// TryLock. The check is intra-procedural plus whole-program
// call summaries (Pass.FactsOf): calling a function that transitively
// reaches a parking point — in this package or any module package it
// imports — counts as parking here.
var Nestedpark = &Analyzer{
	Name: "nestedpark",
	Doc: "no potentially-parking operation (golc Lock/RLock, " +
		"runtime Handle.Wait, or any call that transitively " +
		"reaches one, across package boundaries) while a golc lock is held; use " +
		"TryLock for nested acquisition. Parking while holding deadlocks the " +
		"load-controlled policy's sleep buffer.",
	Run: runNestedpark,
}

func runNestedpark(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		walkFunc(pass.Pkg.Info, fd.Body, pass.FactsOf, hooks{
			onAcquire: func(ci callInfo, held []heldLock, second bool) {
				if ci.kind != kindAcqPark {
					return
				}
				if h, ok := firstHeld(held); ok {
					pass.Reportf(ci.call.Pos(),
						"%s may park while %s is held (acquired at line %d): use TryLock — never park while holding a golc lock",
						ci.name, heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
				}
			},
			onPark: func(ci callInfo, held []heldLock, second bool) {
				if h, ok := firstHeld(held); ok {
					pass.Reportf(ci.call.Pos(),
						"%s parks while %s is held (acquired at line %d): never park while holding a golc lock",
						ci.name, heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
				}
			},
			onCall: func(ci callInfo, held []heldLock, second bool) {
				if ci.callee == nil {
					return
				}
				ff := pass.FactsOf(ci.callee)
				if ff == nil || !ff.Parks {
					return
				}
				if h, ok := firstHeld(held); ok {
					pass.Reportf(ci.call.Pos(),
						"call to %s may park (%s) while %s is held (acquired at line %d): never park while holding a golc lock",
						displayFunc(ci.callee, ci.callee.Pkg() == pass.Pkg.Types), ff.ParkWhat,
						heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
				}
			},
		})
	})
	return nil
}

func firstHeld(held []heldLock) (heldLock, bool) {
	if len(held) == 0 {
		return heldLock{}, false
	}
	return held[0], true
}

func heldName(h heldLock) string {
	if h.key == "" {
		// Synthetic hold from an acquire-helper's facts: only the
		// class names it.
		return h.class
	}
	return strings.TrimSuffix(strings.TrimSuffix(h.key, "/W"), "/R")
}
