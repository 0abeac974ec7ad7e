package runtime

import (
	"bytes"
	"math"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"time"
)

// schedLatencies is the Go scheduler's distribution of time goroutines
// spent runnable before running.
const schedLatencies = "/sched/latencies:seconds"

// schedTrackingPeriod is the Go runtime's gTrackingPeriod: only one in
// this many transitions out of running is timed into schedLatencies,
// and the histogram's counts are not scaled back up, so the summed
// wait it shows is this many times too small. The constant is internal
// to the runtime; TestRunQueueEstimate pins the scale.
const schedTrackingPeriod = 8

// loadavgPath is where Linux reports nr_running; absent elsewhere.
const loadavgPath = "/proc/loadavg"

// sensor is the controller's default load signal: the paper's runnable
// threads against hardware contexts, taken at both scheduling levels a
// Go program has. It belongs to the controller goroutine.
//
//   - runQueue: the mean number of goroutines runnable but waiting for a
//     P over the last tick, by Little's law over the delta of
//     schedLatencies — Σ count × bucket midpoint is the time goroutines
//     spent queued, and queued time ÷ elapsed time is the mean queue
//     length. It is a sampled signal (see schedTrackingPeriod), and a
//     wait is only counted in the tick it ends in.
//   - osExcess: OS threads runnable beyond the CPUs, from the
//     running/total field of /proc/loadavg, read through one kept-open
//     descriptor. Negative when CPUs idle; 0 where the file is
//     unreadable (non-Linux), which leaves runQueue as the whole signal.
type sensor struct {
	sample [1]metrics.Sample
	mids   []float64 // bucket midpoints in seconds; nil if the metric is unsupported
	prev   []uint64  // bucket counts at the previous read
	last   time.Time

	loadavg *os.File // nil where unreadable
}

func newSensor(path string) *sensor {
	s := &sensor{last: time.Now()}
	s.sample[0].Name = schedLatencies
	metrics.Read(s.sample[:])
	if s.sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s.sample[0].Value.Float64Histogram()
		s.prev = append(s.prev, h.Counts...)
		s.mids = make([]float64, len(h.Counts))
		for i := range s.mids {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			// The outermost buckets are open-ended: stand in the finite edge.
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			s.mids[i] = (lo + hi) / 2
		}
	}
	if f, err := os.Open(path); err == nil {
		s.loadavg = f
	}
	return s
}

func (s *sensor) close() {
	if s.loadavg != nil {
		s.loadavg.Close()
	}
}

// runQueue returns the mean number of runnable-but-waiting goroutines
// since the previous call.
func (s *sensor) runQueue() float64 {
	if s.mids == nil {
		return 0
	}
	metrics.Read(s.sample[:])
	now := time.Now() // not the tick's due time: a starved controller reads late
	h := s.sample[0].Value.Float64Histogram()
	var queued float64 // sampled seconds spent runnable
	for i, c := range h.Counts {
		if d := c - s.prev[i]; d != 0 {
			queued += float64(d) * s.mids[i]
			s.prev[i] = c
		}
	}
	elapsed := now.Sub(s.last).Seconds()
	s.last = now
	if elapsed <= 0 {
		return 0
	}
	return queued * schedTrackingPeriod / elapsed
}

// osExcess returns nr_running − 1 − NumCPU: the OS's runnable threads,
// less this one (reading the file is running), beyond the CPUs.
func (s *sensor) osExcess() int {
	if s.loadavg == nil {
		return 0
	}
	var buf [64]byte
	n, _ := s.loadavg.ReadAt(buf[:], 0) // a short file ends in io.EOF with n > 0
	running, ok := parseLoadavgRunning(buf[:n])
	if !ok {
		return 0
	}
	return running - 1 - goruntime.NumCPU()
}

// parseLoadavgRunning extracts nr_running from /proc/loadavg's fourth
// field, "0.73 2.22 2.70 2/85 16657" → 2.
func parseLoadavgRunning(b []byte) (int, bool) {
	f := bytes.Fields(b)
	if len(f) < 4 {
		return 0, false
	}
	run, _, ok := bytes.Cut(f[3], []byte("/"))
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(run))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
