package lint_test

import (
	"testing"

	"repro/internal/lint/linttest"
)

// Each analyzer gets one failing fixture (want-annotated) and one clean
// fixture (no annotations; any finding fails the test). Fixtures load
// in separate runs so their acquisition graphs cannot interact.

func TestLockpair(t *testing.T) {
	linttest.Run(t, "lockpair", "internal/lint/testdata/src/lockpair")
}

func TestLockpairClean(t *testing.T) {
	linttest.Run(t, "lockpair", "internal/lint/testdata/src/lockpairok")
}

func TestNestedpark(t *testing.T) {
	linttest.Run(t, "nestedpark", "internal/lint/testdata/src/nestedpark")
}

func TestNestedparkClean(t *testing.T) {
	linttest.Run(t, "nestedpark", "internal/lint/testdata/src/nestedparkok")
}

func TestLockorder(t *testing.T) {
	linttest.Run(t, "lockorder", "internal/lint/testdata/src/lockorder")
}

func TestLockorderClean(t *testing.T) {
	linttest.Run(t, "lockorder", "internal/lint/testdata/src/lockorderok")
}

func TestCtxlock(t *testing.T) {
	linttest.Run(t, "ctxlock", "internal/lint/testdata/src/ctxlock")
}

func TestCtxlockClean(t *testing.T) {
	linttest.Run(t, "ctxlock", "internal/lint/testdata/src/ctxlockok")
}

func TestHeldcall(t *testing.T) {
	linttest.Run(t, "heldcall", "internal/lint/testdata/src/heldcall")
}

func TestHeldcallClean(t *testing.T) {
	linttest.Run(t, "heldcall", "internal/lint/testdata/src/heldcallok")
}

func TestAtomicfield(t *testing.T) {
	linttest.Run(t, "atomicfield", "internal/lint/testdata/src/atomicfield")
}

func TestAtomicfieldClean(t *testing.T) {
	linttest.Run(t, "atomicfield", "internal/lint/testdata/src/atomicfieldok")
}

func TestWaitseam(t *testing.T) {
	linttest.Run(t, "waitseam", "internal/lint/testdata/src/waitseam")
}

func TestWaitseamClean(t *testing.T) {
	linttest.Run(t, "waitseam", "internal/lint/testdata/src/waitseamok")
}

// The branches fixtures pin the walker's labeled break/continue and
// goto handling, which both lockpair and nestedpark depend on.
func TestBranches(t *testing.T) {
	linttest.Run(t, "lockpair,nestedpark", "internal/lint/testdata/src/branches")
}

func TestBranchesClean(t *testing.T) {
	linttest.Run(t, "lockpair,nestedpark", "internal/lint/testdata/src/branchesok")
}

// Only package p loads as an analysis root: the parking helper lives
// in the imported package q and is visible solely through its facts.
// TestCrossPackageNeedsFacts in internal/lint proves the negative —
// without cross-package facts these fixtures report nothing.
func TestCrosspark(t *testing.T) {
	linttest.Run(t, "nestedpark", "internal/lint/testdata/src/crosspark/p")
}

// Only package b loads as a root; the cycle's forward edge exists only
// in package a's facts.
func TestCrossorder(t *testing.T) {
	linttest.Run(t, "lockorder", "internal/lint/testdata/src/crossorder/b")
}
