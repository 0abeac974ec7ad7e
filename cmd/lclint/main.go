// Command lclint runs the repo's lock-invariant analyzers (internal/lint)
// over the packages named by its arguments:
//
//	go run ./cmd/lclint ./...
//
// It prints one finding per line (file:line:col: message [analyzer]) and
// exits 1 if anything is found — or if an -only/-list analyzer name is
// unknown — and 2 on usage or load errors. CI runs it as a required gate
// next to vet and -race.
//
// The analyzers are whole-program: per-package function summaries
// (parks?, lock-class touch set, held-set delta, ctx-threading, blocking
// work) are computed once per run for every package the roots import,
// so a helper that parks three packages away is still a parking call at
// this call site.
//
// Flags:
//
//	-list         print the analyzers and their invariants, then exit
//	              (honors -only)
//	-only a,b     run only the named analyzers
//
// Suppress a finding with an annotation on, or directly above, the
// flagged line — the reason is mandatory:
//
//	//lint:allow <analyzer> <why this is safe>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	analyzers := lint.All()
	if *only != "" {
		var err error
		if analyzers, err = lint.ByName(*only); err != nil {
			// An unknown analyzer name is a finding about the command
			// line, not a usage error: exit 1, like any other finding,
			// with the valid names in the message.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := lint.NewProgram(loader, pkgs).Run(analyzers)
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
