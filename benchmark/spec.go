package main

import (
	"fmt"
	"runtime"
)

// The metric and workload names below are the ones BENCHMARK.json
// declares; the smoke test fails when the two drift apart.

type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"txn_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDecl{
	{"client.txn_p50_us", "us"},
	{"client.txn_p99_us", "us"},
	{"client.write_txn_p50_us", "us"},
	{"client.write_txn_p99_us", "us"},

	{"golc.lock_uncontended_ns", "ns"},
	{"golc.rw_uncontended_ns", "ns"},
	{"golc.handoff_p50_ns", "ns"},
	{"golc.handoff_p99_ns", "ns"},
	{"golc.wait_p50_us", "us"},
	{"golc.wait_p99_us", "us"},
	{"golc.spins_per_txn", "count"},
	{"golc.ref_txn_per_s", "1/s"},
	{"golc.lc_over_ref", "ratio"},

	{"runtime.parks_per_txn", "count"},
	{"runtime.unlock_wakes_per_park", "ratio"},
	{"runtime.controller_wakes_per_park", "ratio"},
	{"runtime.claim_cancels_per_park", "ratio"},
	{"runtime.timeout_wakes", "count"},
	{"runtime.slot_rejects", "count"},
	{"runtime.park_p50_us", "us"},
	{"runtime.park_p99_us", "us"},

	{"kv.get_p50_ns", "ns"},
	{"kv.put_p50_ns", "ns"},
	{"kv.applybatch_p50_ns", "ns"},
	{"kv.latch_wait_p99_us", "us"},
	{"kv.latch_spins_per_txn", "count"},
	{"kv.latch_parks_per_txn", "count"},

	{"oltp.txn_self_p50_us", "us"},
	{"oltp.aborts_per_commit", "ratio"},
	{"oltp.retries_per_commit", "ratio"},
	{"oltp.lock_waits_per_commit", "ratio"},
	{"oltp.latch_misses_per_commit", "ratio"},
	{"oltp.lock_wait_p50_us", "us"},
	{"oltp.lock_wait_p99_us", "us"},
	{"oltp.timeout_aborts", "count"},
	{"oltp.lock_entries_peak", "count"},

	{"wal.commit_p50_us", "us"},
	{"wal.commit_p99_us", "us"},
	{"wal.group_mean", "count"},
	{"wal.group_p99", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.syncs_per_commit", "ratio"},
	{"wal.bytes_per_commit", "B"},
	{"wal.wait_spins_per_commit", "count"},
	{"wal.wait_parks_per_commit", "count"},
	{"wal.recovery_s", "s"},
	{"wal.replay_records_per_s", "1/s"},

	{"lcserve.rtt_p50_us", "us"},
	{"lcserve.self_p50_us", "us"},
	{"lcserve.req_bytes_per_txn", "B"},
	{"lcserve.resp_bytes_per_txn", "B"},
	{"lcserve.http_errors", "count"},
	{"lcserve.cpu_ms_per_ktxn", "ms"},
	{"lcserve.ready_s", "s"},

	{"proc.cpu_ms_per_ktxn", "ms"},
	{"trace.overhead_frac", "ratio"},
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// metric is one reported value, in the result line's wire format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a declared metric; an undeclared name is a harness bug.
func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("lcperf: metric " + name + " is not declared in spec.go")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// zeroFill reports every declared metric the run had no source for as
// 0: a layer a workload does not touch (the log on a volatile workload,
// lcserve on an in-process one) did no work.
func (m metrics) zeroFill(decls []metricDecl) {
	for _, d := range decls {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

// workload is one benchmark workload. Sizes are relative to the
// machine's CPU count; oversubscription (procs above it) is the paper's
// independent variable.
type workload struct {
	name string
	// procsX is GOMAXPROCS of the process under test as a multiple of
	// the CPU count; workersX is closed-loop workers per GOMAXPROCS.
	procsX, workersX int
	ref              string // reference contention policy the lc phase is compared with; "" for none
	durable          bool
	shape            string // "tatp", "conflict" or "http"
	warmup           int64  // committed transactions before the first window opens
}

// Why each was chosen is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "http_txn_durable_1x", shape: "http", procsX: 1, workersX: 1, durable: true, warmup: 1500},
	{name: "tatp_1x", shape: "tatp", procsX: 1, workersX: 1, ref: "spin", warmup: 50000},
	{name: "tatp_8x", shape: "tatp", procsX: 8, workersX: 4, ref: "block", warmup: 20000},
	{name: "write_durable_8x", shape: "conflict", procsX: 8, workersX: 4, ref: "block", durable: true, warmup: 4000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) procs() int   { return w.procsX * runtime.NumCPU() }
func (w workload) workers() int { return w.workersX * w.procs() }

// sizing is what -quick shrinks.
type sizing struct {
	subscribers  int // TATP and HTTP subscriber rows
	perPartition int // conflict rows per partition
	warmupDiv    int64
}

var (
	fullSize  = sizing{subscribers: 4096, perPartition: 4096, warmupDiv: 1}
	quickSize = sizing{subscribers: 256, perPartition: 1024, warmupDiv: 10}
)
