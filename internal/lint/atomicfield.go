package lint

import (
	"go/types"
)

// Atomicfield keeps every shared word a typed atomic (atomic.Int64,
// atomic.Uint64, atomic.Pointer, ...) rather than a plain field handed
// to sync/atomic's package-level functions (atomic.AddUint64(&x.n, 1)).
// One plain access racing an atomic one is undefined behavior the race
// detector only catches if the schedule cooperates. A typed atomic
// makes "atomic anywhere means atomic everywhere" hold by construction:
// the compiler rejects a plain read or write of it, and go vet's
// copylocks rejects a copy. So the rule needs no whole-program field
// set: any use of a receiverless sync/atomic function is the finding.
var Atomicfield = &Analyzer{
	Name: "atomicfield",
	Doc: "shared words are typed atomics (atomic.Int64, atomic.Uint64, ...), never " +
		"plain fields passed to sync/atomic's package-level functions: a typed " +
		"atomic cannot be read or written plainly, so no plain access can race " +
		"an atomic one.",
	Run: runAtomicfield,
}

func runAtomicfield(pass *Pass) error {
	for id, obj := range pass.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // a typed atomic's method
		}
		pass.Reportf(id.Pos(),
			"atomic.%s on a plain word: declare it as a typed atomic (atomic.Int64, atomic.Uint64, ...) so no access to it can be plain",
			fn.Name())
	}
	return nil
}
