// Package lint is lclint's analysis framework plus the seven
// repo-specific analyzers that machine-check the lock runtime's
// correctness invariants (see cmd/lclint):
//
//   - lockpair: every golc Lock/RLock acquisition must be released on
//     every path out of the function (defer-aware).
//   - nestedpark: no potentially-parking acquisition while a golc lock
//     is held — the PR-1 "never park while holding" rule that
//     RWMutex.LockNested exists for.
//   - lockorder: the static acquisition-order graph (golc lock classes
//     plus oltp's table→partition→record logical hierarchy) must stay
//     acyclic.
//   - ctxlock: context-aware acquisition paths must not be fed
//     context.Background()/TODO() when a real deadline/cancel context
//     is in scope — the deadlock detector's victim-kill path depends
//     on waits being cancellable.
//   - heldcall: no blocking or alloc-heavy work (I/O, channel
//     operations, time.Sleep, fmt printing to writers) inside a golc
//     critical section.
//   - atomicfield: a struct field touched via sync/atomic anywhere
//     must be accessed atomically everywhere.
//   - waitseam: golc.Wait is the only caller of a ContentionPolicy's
//     Wait method (matched by method identity) — the flight recorder's
//     one-seam guarantee, pinned statically.
//
// The analyzers are whole-program: per-package function summaries
// (FuncFacts — parks?, lock-class touch set, held-set delta,
// ctx-threading, blocking work; facts.go), and a Program resolves
// facts for imported packages alongside their export data, from source
// on demand and once per run — so a helper that parks three packages
// away is still a parking call here.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer/Pass/Diagnostic, testdata golden tests in linttest), but is
// self-contained on the standard library: this module has no external
// dependencies and its toolchain gates run offline, so the framework
// loads packages itself — source-parsing the packages under analysis
// and resolving their imports through the compiler's export data (see
// load.go) instead of go/packages.
//
// Findings are suppressed with an explicit, reasoned annotation:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. A suppression
// without a reason is itself a finding — the decision record is the
// point, not the mute button.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check. The shape follows
// golang.org/x/tools/go/analysis so the checks could migrate to the
// real framework if this module ever grows the dependency.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// suppressions. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph description `lclint -list` prints:
	// the invariant, and why the repo holds it.
	Doc string

	// Run analyzes one package and reports findings through
	// pass.Report.
	Run func(pass *Pass) error

	// Begin, when non-nil, resets any cross-package state before a
	// whole-program run (lockorder accumulates its acquisition graph
	// across packages).
	Begin func()

	// End, when non-nil, runs after every package has been analyzed
	// and may report program-wide findings (e.g. lock-order cycles
	// whose edges live in different packages).
	End func(report func(Diagnostic))
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Prog is the whole-program run this pass belongs to: the merged
	// facts view over the package's imports.
	Prog *Program

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FactsOf returns the whole-program facts for fn — same-package or
// imported alike — or nil when nothing is known about it.
func (p *Pass) FactsOf(fn *types.Func) *FuncFacts {
	if p.Prog == nil {
		return nil
	}
	return p.Prog.FactsOf(fn)
}

// summary adapts FactsOf to the walker's summary-injection hook.
func (p *Pass) summary() func(*types.Func) *FuncFacts {
	return p.FactsOf
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Lockpair, Nestedpark, Lockorder, Ctxlock, Heldcall, Atomicfield, Waitseam}
}

// ByName resolves a comma-separated analyzer list ("lockpair,ctxlock").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, a := range All() {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// Run applies analyzers to pkgs without cross-package fact resolution
// (same-package summaries still close): a convenience wrapper over
// NewProgram(...).Run for callers with no Loader. Program.Run
// documents the filtering and ordering contract.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	return NewProgram(nil, pkgs).Run(analyzers)
}
