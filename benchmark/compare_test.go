package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	noisy := func(v float64) []float64 { return []float64{v, v * 1.3, v * 0.7, v * 1.2, v * 0.8} }
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     verdict
	}{
		{"throughput up beyond bound", steady(100), steady(120), true, 0.10, better},
		{"throughput down beyond bound", steady(100), steady(85), true, 0.10, worse},
		{"throughput within bound", steady(100), steady(95), true, 0.10, same},
		{"latency down beyond bound", steady(100), steady(80), false, 0.10, better},
		{"latency up beyond bound", steady(100), steady(115), false, 0.10, worse},
		{"latency within bound", steady(100), steady(108), false, 0.10, same},
		{"single runs judge by the bound alone", []float64{100}, []float64{150}, false, 0.10, worse},
		{"noisy old side", noisy(100), steady(100), true, 0.10, unresolved},
		{"noisy new side hides a regression", steady(100), noisy(70), true, 0.10, unresolved},
		{"noise inside a wide bound resolves", noisy(100), noisy(100), true, 0.60, same},
		{"missing new side", steady(100), nil, true, 0.10, unresolved},
		{"zero base", []float64{0, 0}, steady(1), true, 0.10, unresolved},
	} {
		if _, _, _, got := judge(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	om, nm, ratio, _ := judge([]float64{90, 100, 110}, []float64{55, 50, 45}, true, 0.25)
	if om != 100 || nm != 50 || ratio != 0.5 {
		t.Errorf("medians %v and %v, ratio %v; want 100, 50, 0.5", om, nm, ratio)
	}
}

func TestCompareTable(t *testing.T) {
	var bf benchmarkFile
	bf.EndToEnd = []declaredMetric{{"txn_per_s", "1/s", "higher", 0.10}, {"txn_p99_us", "us", "lower", 0.20}}
	file := func(rate, p99 float64) resultFile {
		return resultFile{Workloads: map[string]*workloadResult{
			"tatp_8x": {EndToEnd: map[string]series{
				"txn_per_s":  {Unit: "1/s", Values: []float64{rate}},
				"txn_p99_us": {Unit: "us", Values: []float64{p99}},
			}},
			"only_in_one": {},
		}}
	}
	oldRF, newRF := file(50000, 25000), file(40000, 26000)
	delete(newRF.Workloads, "only_in_one")
	var out bytes.Buffer
	counts := compareTable(&out, bf, oldRF, newRF)
	if counts[worse] != 1 || counts[same] != 1 || counts[better]+counts[unresolved] != 0 {
		t.Errorf("verdicts %v, want one worse (throughput -20%%) and one same (p99 +4%%)\n%s", counts, out.String())
	}
	for _, want := range []string{"tatp_8x", "txn_per_s", "0.800 of 5e+04", "worse", "1.040 of 2.5e+04", "same"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "only_in_one") {
		t.Errorf("a workload present in one file only was compared:\n%s", out.String())
	}
}
