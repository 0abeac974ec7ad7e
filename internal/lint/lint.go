// Package lint is lclint's analysis framework plus the four
// repo-specific analyzers that machine-check the lock runtime's
// correctness invariants (see cmd/lclint):
//
//   - lockpair: every golc Lock/RLock/TryLock acquisition, and every
//     acquire-helper call, must be released explicitly on every path
//     out of the function. The held-set walker models only the Go this
//     tree writes, so lockpair also reports each construct it does not
//     model — goto, labeled break/continue, a deferred golc release,
//     and a TryLock that is not the whole condition of an if —
//     instead of modelling it.
//   - nestedpark: no potentially-parking acquisition while a golc lock
//     is held — the runtime's "never park while holding" rule; TryLock
//     is the sanctioned nested acquire.
//   - heldcall: no blocking or alloc-heavy work (I/O, channel
//     operations, time.Sleep, fmt printing to writers) inside a golc
//     critical section.
//   - atomicfield: shared words are typed atomics (atomic.Int64, ...),
//     never plain fields handed to sync/atomic's package-level
//     functions.
//
// The analyzers are whole-program: per-package function summaries
// (FuncFacts — parks?, held-set delta, blocking work; facts.go), and a
// Program resolves facts for imported packages alongside their export
// data, from source on demand and once per run — so a helper that
// parks three packages away is still a parking call here.
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

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Lockpair, Nestedpark, Heldcall, Atomicfield}
}

// ByName resolves a comma-separated analyzer list ("lockpair,heldcall").
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
