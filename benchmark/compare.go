package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares a metric's repeats at two commits against its
// regression bound. ratio is new/old, its base the old median. Whenever
// either side's own run-to-run spread is wider than the bound, a
// bound-sized change cannot be told from noise and the verdict is
// unresolved — never "same".
func judge(old, new []float64, higherIsBetter bool, bound float64) (oldMed, newMed, ratio float64, v verdict) {
	oldMed, newMed = median(old), median(new)
	if len(old) == 0 || len(new) == 0 || oldMed == 0 {
		return oldMed, newMed, 0, unresolved
	}
	ratio = newMed / oldMed
	if max(spread(old), spread(new)) > bound {
		return oldMed, newMed, ratio, unresolved
	}
	gain := ratio - 1
	if !higherIsBetter {
		gain = -gain
	}
	switch {
	case gain < -bound:
		v = worse
	case gain > bound:
		v = better
	default:
		v = same
	}
	return oldMed, newMed, ratio, v
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

// cmdCompare prints one row per workload and end-to-end metric of two
// result files and exits 1 if any is worse.
func cmdCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: lcperf compare old.json new.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	oldRF, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	newRF, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	counts := compareTable(w, bf, oldRF, newRF)
	fmt.Fprintf(w, "\n%d better, %d same, %d worse, %d unresolved\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return 1
	}
	return 0
}

// compareTable writes the rows and returns how many got each verdict.
func compareTable(w io.Writer, bf benchmarkFile, oldRF, newRF resultFile) map[verdict]int {
	counts := map[verdict]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tunit\tnew/old\tbound\tverdict")
	var names []string
	for name := range oldRF.Workloads {
		if newRF.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		o, n := oldRF.Workloads[name], newRF.Workloads[name]
		for _, m := range bf.EndToEnd {
			om, nm, ratio, v := judge(o.EndToEnd[m.Name].Values, n.EndToEnd[m.Name].Values, m.Better == "higher", m.Bound)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%.3f of %.4g\t%.2f\t%s\n", name, m.Name, om, nm, m.Unit, ratio, om, m.Bound, v)
		}
	}
	tw.Flush() //nolint:errcheck // a report to a terminal or a test buffer
	return counts
}
