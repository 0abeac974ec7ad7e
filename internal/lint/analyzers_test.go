package lint_test

import (
	"testing"

	"repro/internal/lint/linttest"
)

// Each analyzer gets one failing fixture (want-annotated) and one clean
// fixture (no annotations; any finding fails the test). Fixtures load
// in separate runs so their facts cannot interact.

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

// The branches fixtures pin the walker's break/continue handling, which
// both lockpair and nestedpark depend on, and lockpair's report of each
// construct the walker does not model (labeled branches, goto, deferred
// releases, a TryLock outside `if mu.TryLock() {`): under the whole
// suite, as in TestOneFindingPerBug, each marked line draws exactly one
// finding.
func TestBranches(t *testing.T) {
	linttest.Run(t, "lockpair,nestedpark,heldcall,atomicfield", "internal/lint/testdata/src/branches")
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

// The whole suite over one fixture: every marked line is one bug and
// must draw exactly one finding, whichever analyzer owns it.
func TestOneFindingPerBug(t *testing.T) {
	linttest.Run(t, "lockpair,nestedpark,heldcall,atomicfield", "internal/lint/testdata/src/onefinding")
}
