package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// result is the last line a run prints: the contract with whatever
// drives the benchmark.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run is one invocation: one workload, one seed, traced or not.
type run struct {
	wl      workload
	seed    int64
	seconds int
	size    sizing
	quick   bool
	root    string // the checkout
	rp      *reaper
	tmp     string // scratch inside the checkout, removed on exit
	spans   string // where a traced run writes its spans; "" for nowhere
	tr      *tracer
	res     result
	notes   []string // human-readable lines printed beside the metrics
}

// setups is how many times an untraced run sets the system up: setup_s
// is the median, and the last set-up is the one measured on. A smoke
// run sets up once.
func (r *run) setups() int {
	if r.quick {
		return 1
	}
	return 5
}

// check counts one correctness check; a failed one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Fprintf(os.Stderr, "lcperf: CHECK FAILED: "+format+"\n", args...)
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// window is the length of one measured window: all of -seconds for an
// untraced run, a quarter for a traced one (untraced baseline, traced
// window, reference policy, probes).
func (r *run) window(traced bool) time.Duration {
	d := time.Duration(r.seconds) * time.Second
	if traced {
		d /= 4
	}
	return d
}

// measured opens a window of d on l, folds it into its statistics and
// adds its transactions to the run's totals.
func (r *run) measured(l *load, d time.Duration, tr *tracer) (windowStats, error) {
	w, err := l.measure(d, tr)
	if err != nil {
		return windowStats{}, err
	}
	return r.counted(w.stats()), nil
}

// tracedResult is what the traced part of a run measured.
type tracedResult struct {
	c0, c1   counters    // the layers' counters either side of the traced window
	traced   windowStats // the traced window
	untraced float64     // txn/s, mean of the untraced windows either side of it
}

// tracedWindows runs an untraced, a traced and another untraced window
// on l (so drift cancels out of the tracing overhead), reads the layers'
// counters and the harness's own CPU clock around the traced one, and
// reports the counter-fed per-layer metrics.
func (r *run) tracedWindows(l *load, read func() (counters, error)) (tracedResult, error) {
	var t tracedResult
	d := r.window(true)
	before, err := r.measured(l, d/2, nil)
	if err != nil {
		return t, err
	}
	if t.c0, err = read(); err != nil {
		return t, err
	}
	cpu0, err := procCPUms("self")
	if err != nil {
		return t, err
	}
	if t.traced, err = r.measured(l, d, r.tr); err != nil {
		return t, err
	}
	cpu1, err := procCPUms("self")
	if err != nil {
		return t, err
	}
	if t.c1, err = read(); err != nil {
		return t, err
	}
	after, err := r.measured(l, d/2, nil)
	if err != nil {
		return t, err
	}
	t.untraced = (before.mean + after.mean) / 2
	m, txns := r.res.Metrics, float64(t.traced.committed)
	layerMetrics(m, t.c0, t.c1, txns)
	m.set("client.txn_p50_us", t.traced.all.p50us)
	m.set("client.txn_p99_us", t.traced.all.tailus)
	m.set("client.write_txn_p50_us", t.traced.write.p50us)
	m.set("client.write_txn_p99_us", t.traced.write.tailus)
	m.set("proc.cpu_ms_per_ktxn", ratio(cpu1-cpu0, txns/1e3))
	m.set("trace.overhead_frac", 1-ratio(t.traced.mean, t.untraced))
	r.note("lc untraced %.0f then %.0f txn/s, traced %.0f between", before.mean, after.mean, t.traced.mean)
	return t, nil
}

func (r *run) counted(st windowStats) windowStats {
	r.res.Attempted += st.committed + st.failed
	r.res.Failed += st.failed
	return st
}

// endToEnd reports the user-visible metrics of the untraced window.
func (r *run) endToEnd(st windowStats, setups []float64, rssMB float64) {
	m := r.res.Metrics
	m.set("txn_per_s", st.rate)
	m.set("peak_rss_mb", rssMB)
	m.set("setup_s", median(setups))
	for _, c := range []struct {
		class string
		lat   latency
	}{{"txn", st.all}, {"write txn", st.write}} {
		r.note("%s latency: n=%d, p50 %.4g us, p%.4g %.4g us, medians over %d slice groups (smallest %d samples)",
			c.class, c.lat.n, c.lat.p50us, 100*c.lat.tailQ, c.lat.tailus, c.lat.groups, c.lat.groupN)
	}
	r.note("setup_s samples: %v", setups)
	r.note("txn/s per slice (median %.0f): %.0f", median(st.rates), st.rates)
	r.note("txn tail per slice group, us: %.0f", st.all.tails)
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of a process's status
// file, in MB.
func procStatusMB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// procCPUms reads a process's user+system CPU time in ms.
func procCPUms(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	const clockTick = 100 // USER_HZ, fixed on Linux
	return (utime + stime) * 1000 / clockTick, nil
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory under run.sh and its parent under
// `go run -C benchmark .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// cmdRun is the single-run mode:
//
//	lcperf --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans FILE]
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("lcperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus layer probes")
	quick := fs.Bool("quick", false, "small tables and short warm-up (smoke testing)")
	spans := fs.String("spans", "", "with --trace 1: write the recorded spans to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lcperf: bad arguments (%v)\nusage: lcperf --workload NAME --seed N --seconds S --trace 0|1\n"+
			"       lcperf all [flags]\n       lcperf compare old.json new.json\n", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	r := &run{wl: wl, seed: *seed, seconds: *seconds, size: fullSize, quick: *quick, root: root, spans: *spans,
		res: result{Metrics: metrics{}}}
	if *quick {
		r.size = quickSize
	}
	if r.rp, err = newReaper(root); err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 1
	}
	defer r.rp.cleanup()
	r.tmp = r.rp.scratch

	decls := endToEnd
	if *trace == 1 {
		decls = perLayer
		r.tr = newTracer()
	}
	if wl.shape == "http" {
		err = r.runHTTP()
	} else {
		runtime.GOMAXPROCS(wl.procs())
		err = r.runInproc()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 1
	}
	if r.tr != nil && r.spans != "" {
		if err := r.tr.write(r.spans, wl.name); err != nil {
			fmt.Fprintln(os.Stderr, "lcperf: write spans:", err)
			return 1
		}
	}
	r.res.Metrics.zeroFill(decls)
	r.res.Correct = r.res.Failed == 0
	r.print(decls)
	if !r.res.Correct {
		return 1
	}
	return 0
}

// print lists every metric by name with its unit, then the result line.
func (r *run) print(decls []metricDecl) {
	fmt.Printf("workload %s seed %d seconds %d GOMAXPROCS %d workers %d on %d CPU(s)\n",
		r.wl.name, r.seed, r.seconds, r.wl.procs(), r.wl.workers(), runtime.NumCPU())
	for _, d := range decls {
		fmt.Printf("  %-36s %16.4f %s\n", d.name, r.res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.notes {
		fmt.Println("  #", n)
	}
	fmt.Printf("  attempted %d failed %d\n", r.res.Attempted, r.res.Failed)
	line, err := json.Marshal(r.res)
	if err != nil {
		panic(err) // numbers and strings only: cannot fail
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	slices.Sort(names)
	return names
}
