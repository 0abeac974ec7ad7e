package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestQuickAllMatchesBenchmarkJSON builds lcperf, runs `lcperf all
// -quick` end to end — every workload untraced and traced, the kill -9
// durability check included — and holds the output to BENCHMARK.json in
// both directions, so the declaration and the code cannot drift apart.
func TestQuickAllMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "lcperf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	resultPath, spansPath := filepath.Join(tmp, "result.json"), filepath.Join(tmp, "spans.json")
	if out, err := exec.Command(bin, "all", "-quick", "-out", resultPath, "-trace", spansPath).CombinedOutput(); err != nil {
		t.Fatalf("lcperf all -quick: %v\n%s", err, out)
	}
	rf, err := readResultFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(spansPath); err != nil || info.Size() == 0 {
		t.Errorf("no spans written: %v", err)
	}

	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		declared[w.Name] = true
		wr := rf.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s is declared in BENCHMARK.json but did not run", w.Name)
			continue
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("workload %s: correct=%v failed=%d attempted=%d", w.Name, wr.Correct, wr.Failed, wr.Attempted)
		}
		for kind, c := range map[string]struct {
			want []declaredMetric
			got  map[string]series
		}{"end-to-end": {bf.EndToEnd, wr.EndToEnd}, "per-layer": {bf.PerLayer, wr.PerLayer}} {
			names := map[string]bool{}
			for _, m := range c.want {
				names[m.Name] = true
				s, ok := c.got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s is declared in BENCHMARK.json but was not reported", w.Name, kind, m.Name)
				case s.Unit != m.Unit:
					t.Errorf("%s: %s is reported in %q, declared in %q", w.Name, m.Name, s.Unit, m.Unit)
				case kind == "end-to-end" && (len(s.Values) != 1 || s.Values[0] <= 0):
					t.Errorf("%s: end-to-end metric %s = %v, want one positive value", w.Name, m.Name, s.Values)
				}
			}
			for name := range c.got {
				if !names[name] {
					t.Errorf("%s: %s metric %s is reported but not declared in BENCHMARK.json", w.Name, kind, name)
				}
			}
		}
	}
	for name := range rf.Workloads {
		if !declared[name] {
			t.Errorf("workload %s ran but is not declared in BENCHMARK.json", name)
		}
	}
	for _, w := range workloads {
		if !declared[w.name] {
			t.Errorf("workload %s exists in spec.go but not in BENCHMARK.json", w.name)
		}
	}
}
