package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is one whole-program analysis run: the root packages under
// analysis plus the merged facts view over everything they import.
// Facts for a dependency come from parsing and type-checking its source
// on demand through the loader, once per Program — mirroring how
// load.go resolves dependency *types* through export data, facts ride
// alongside that export data rather than replacing it.
type Program struct {
	loader *Loader
	pkgs   []*Package

	loaded   map[string]*Package      // import path → syntax+types (roots, plus on-demand deps)
	facts    map[string]*PackageFacts // import path → facts (nil entry: tried and failed)
	building map[string]bool          // cycle guard for factsPkg
}

// NewProgram builds a Program over pkgs. loader may be nil (facts then
// stop at the packages given — no cross-package resolution).
func NewProgram(loader *Loader, pkgs []*Package) *Program {
	p := &Program{
		loader:   loader,
		pkgs:     pkgs,
		loaded:   make(map[string]*Package),
		facts:    make(map[string]*PackageFacts),
		building: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		p.loaded[pkg.ImportPath] = pkg
	}
	return p
}

// moduleInternal reports whether path names a package inside the
// loader's module — the only packages facts are computed for.
func (p *Program) moduleInternal(path string) bool {
	if p.loader == nil {
		return false
	}
	return path == p.loader.ModPath || strings.HasPrefix(path, p.loader.ModPath+"/")
}

// factsPkg returns the facts of one package: memoized, else computed
// from source — loading the source on demand for a module-internal
// dependency that is not a root. A package whose facts cannot be
// produced (outside the module, source unavailable) resolves to nil and
// the analyzers treat its functions as opaque — conservative, exactly
// like the pre-facts suite.
func (p *Program) factsPkg(path string) *PackageFacts {
	if pf, ok := p.facts[path]; ok {
		return pf
	}
	if p.building[path] {
		return nil
	}
	p.building[path] = true
	defer delete(p.building, path)

	pkg := p.loaded[path]
	if pkg == nil && !p.moduleInternal(path) {
		p.facts[path] = nil
		return nil
	}
	if pkg == nil {
		lp, err := p.loader.loadDir(p.loader.dirFor(path))
		if err != nil {
			p.facts[path] = nil
			return nil
		}
		pkg = lp
		p.loaded[path] = pkg
	}
	pf := computePackageFacts(pkg, p)
	p.facts[path] = pf
	return pf
}

// FactsOf returns the whole-program facts for fn, or nil when none are
// known (builtin, outside the module, source unavailable).
func (p *Program) FactsOf(fn *types.Func) *FuncFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf := p.factsPkg(fn.Pkg().Path())
	if pf == nil {
		return nil
	}
	return pf.Funcs[symbolOf(fn)]
}

// Run applies analyzers to the program's root packages and returns
// surviving findings sorted by position: suppressed findings are
// dropped, malformed suppressions are added (a //lint:allow with no
// analyzer name or no reason is a finding of its own), and duplicates
// (same analyzer, position and message — e.g. from the walker's second
// loop pass) collapse.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	// Prime the facts for every root in deterministic order, so
	// on-demand dependency loads do not depend on analyzer order.
	for _, pkg := range p.pkgs {
		p.factsPkg(pkg.ImportPath)
	}

	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	for _, a := range analyzers {
		for _, pkg := range p.pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: p, report: collect}
			if err := a.Run(pass); err != nil {
				collect(Diagnostic{Analyzer: a.Name, Pos: token.NoPos,
					Message: fmt.Sprintf("internal error in %s: %v", pkg.ImportPath, err)})
			}
		}
	}

	// One suppression index over every file of every package analyzed.
	sup := newSuppressions(p.pkgs)
	diags = append(sup.malformed, filterSuppressed(diags, sup)...)

	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	fsetPos := func(pos token.Pos) token.Position {
		if len(p.pkgs) == 0 || pos == token.NoPos {
			return token.Position{}
		}
		return p.pkgs[0].Fset.Position(pos)
	}
	for _, d := range diags {
		key := d.Analyzer + "\x00" + fsetPos(d.Pos).String() + "\x00" + d.Message
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fsetPos(out[i].Pos), fsetPos(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}
