package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the declaration every result is read
// against.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// series is one metric's values over the repeats of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// workloadResult is everything `all` learned about one workload.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// resultFile is what `all -out` writes and `compare` reads.
type resultFile struct {
	Schema string `json:"schema"`
	Meta   struct {
		Seed    int64  `json:"seed"`
		Seconds int    `json:"seconds"`
		Runs    int    `json:"runs"`
		Quick   bool   `json:"quick"`
		CPUs    int    `json:"cpus"`
		Go      string `json:"go"`
	} `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultSchema = "lcperf/1"

// cmdAll runs every workload, each run in its own child process (a
// fresh Go runtime, its own GOMAXPROCS, its own peak RSS): first
// untraced for the end-to-end metrics, then traced for the per-layer
// ones.
func cmdAll(args []string) int {
	fs := flag.NewFlagSet("lcperf all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed; repeat i runs with seed+i")
	seconds := fs.Int("seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json; 1 with -quick)")
	out := fs.String("out", "", "write every metric of every run to this file as JSON")
	quick := fs.Bool("quick", false, "one-second windows and small tables (smoke testing)")
	trace := fs.String("trace", "", "write the traced runs' spans to this file, one JSON document per line")
	only := fs.String("workloads", "", "comma-separated workloads to run, in this order (default: all)")
	runs := fs.Int("runs", 1, "repeats per workload; compare takes medians over them")
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 || *runs < 1 {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 2
	}
	if *seconds == 0 {
		bf, err := readBenchmarkFile(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcperf:", err)
			return 2
		}
		*seconds = bf.RunSeconds
		if *quick {
			*seconds = 1
		}
	}
	names := workloadNames()
	if *only != "" {
		names = strings.Split(*only, ",")
		for _, n := range names {
			if _, err := workloadByName(n); err != nil {
				fmt.Fprintln(os.Stderr, "lcperf:", err)
				return 2
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 1
	}
	rp, err := newReaper(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcperf:", err)
		return 1
	}
	defer rp.cleanup()

	rf := resultFile{Schema: resultSchema, Workloads: map[string]*workloadResult{}}
	rf.Meta.Seed, rf.Meta.Seconds, rf.Meta.Runs, rf.Meta.Quick = *seed, *seconds, *runs, *quick
	rf.Meta.CPUs, rf.Meta.Go = runtime.NumCPU(), runtime.Version()
	var spans *os.File
	if *trace != "" {
		if spans, err = os.Create(*trace); err != nil {
			fmt.Fprintln(os.Stderr, "lcperf:", err)
			return 1
		}
	}
	ok := true
	for _, name := range names {
		wr := &workloadResult{Correct: true, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		rf.Workloads[name] = wr
		for i := 0; i < *runs; i++ {
			for traced, into := range []map[string]series{wr.EndToEnd, wr.PerLayer} {
				child := []string{"--workload", name, "--seed", strconv.FormatInt(*seed+int64(i), 10),
					"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(traced)}
				if *quick {
					child = append(child, "--quick")
				}
				spanFile := ""
				if traced == 1 && spans != nil {
					spanFile = filepath.Join(rp.scratch, "spans.json")
					child = append(child, "--spans", spanFile)
				}
				res, err := runChild(rp, self, child)
				if err != nil {
					fmt.Fprintf(os.Stderr, "lcperf: %s: %v\n", name, err)
					ok = false
					wr.Correct = false
					continue
				}
				wr.Correct = wr.Correct && res.Correct
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				ok = ok && res.Correct
				for metric, v := range res.Metrics {
					s := into[metric]
					s.Unit, s.Values = v.Unit, append(s.Values, v.Value)
					into[metric] = s
				}
				if spanFile != "" {
					if err := appendFile(spans, spanFile); err != nil {
						fmt.Fprintln(os.Stderr, "lcperf: spans:", err)
						ok = false
					}
				}
			}
		}
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lcperf: spans:", err)
			ok = false
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lcperf:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "lcperf: FAILED: a run failed or a correctness check did not pass")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, passing its output
// through, and parses the result line it ends with.
func runChild(rp *reaper, self string, args []string) (result, error) {
	var res result
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := rp.spawn(cmd); err != nil {
		return res, err
	}
	runErr := rp.wait(cmd)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil // an incorrect run exits 1 but still reports
}

// appendFile appends the file at path to dst as one line.
func appendFile(dst *os.File, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = dst.Write(append(bytes.TrimSpace(data), '\n'))
	return err
}
