// Command lcperf is the repo's benchmark: one regenerable, layered
// measurement of the lock → kv → oltp → wal → HTTP vertical. See
// README.md in this directory.
//
//	lcperf --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//	lcperf all [-seed N] [-out result.json] [-quick] ...       every workload, each in its own process
//	lcperf compare old.json new.json                           verdict per workload and metric
package main

import "os"

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "all":
			os.Exit(cmdAll(args[1:]))
		case "compare":
			os.Exit(cmdCompare(args[1:], os.Stdout))
		}
	}
	os.Exit(cmdRun(args))
}
