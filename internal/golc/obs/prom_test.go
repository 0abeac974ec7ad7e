package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestPromFormat renders a small metrics page and validates the
// invariants the exposition format demands: one HELP/TYPE header per
// family, ascending le values, monotone cumulative buckets, and
// _count == +Inf bucket == sum of observations.
func TestPromFormat(t *testing.T) {
	h := NewHistogram(1)
	for _, ns := range []int64{1, 3, 3, 900, 1500, 1 << 20, 1 << 20} {
		h.Observe(ns)
	}
	s := h.Snapshot()

	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Counter("golc_updates_total", "controller updates", nil, 17)
	pw.Gauge("golc_target", "sleep target", nil, 3)
	pw.Histogram("golc_wait_seconds", "wait time", nil, s)
	pw.Histogram("golc_wait_seconds", "wait time", []Label{{"lock", `a"b\c`}}, s)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	if got := strings.Count(text, "# TYPE golc_wait_seconds histogram"); got != 1 {
		t.Fatalf("family header written %d times, want 1", got)
	}
	if !strings.Contains(text, "golc_updates_total 17") {
		t.Fatalf("counter sample missing:\n%s", text)
	}
	if !strings.Contains(text, `lock="a\"b\\c"`) {
		t.Fatalf("label escaping wrong:\n%s", text)
	}

	// Validate each histogram series: le ascending, cum monotone,
	// +Inf == _count.
	checkSeries := func(labelFrag string, wantLabeled bool) {
		var les []float64
		var cums []uint64
		var count, inf uint64
		var haveCount bool
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "golc_wait_seconds") || !strings.Contains(line, labelFrag) {
				continue
			}
			if strings.Contains(line, `lock="`) != wantLabeled {
				continue
			}
			fields := strings.Fields(line)
			switch {
			case strings.HasPrefix(line, "golc_wait_seconds_bucket"):
				leStart := strings.Index(line, `le="`) + 4
				le := line[leStart : leStart+strings.Index(line[leStart:], `"`)]
				v, _ := strconv.ParseUint(fields[1], 10, 64)
				if le == "+Inf" {
					inf = v
				} else {
					f, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("bad le %q: %v", le, err)
					}
					les = append(les, f)
					cums = append(cums, v)
				}
			case strings.HasPrefix(line, "golc_wait_seconds_count"):
				count, _ = strconv.ParseUint(fields[1], 10, 64)
				haveCount = true
			}
		}
		for i := 1; i < len(les); i++ {
			if les[i] <= les[i-1] {
				t.Fatalf("series %q: le not ascending: %v", labelFrag, les)
			}
			if cums[i] < cums[i-1] {
				t.Fatalf("series %q: buckets not monotone: %v", labelFrag, cums)
			}
		}
		if !haveCount || count != s.Count || inf != s.Count {
			t.Fatalf("series %q: _count=%d +Inf=%d, want both %d", labelFrag, count, inf, s.Count)
		}
		if len(cums) > 0 && cums[len(cums)-1] > inf {
			t.Fatalf("series %q: last finite bucket %d exceeds +Inf %d", labelFrag, cums[len(cums)-1], inf)
		}
	}
	checkSeries("golc_wait_seconds", false)
	checkSeries(`lock=`, true)
}

// TestPromHistogramUnits pins both histogram renderings of one snapshot
// byte for byte: Histogram converts nanoseconds to seconds in the le
// labels and _sum, RawHistogram emits the snapshot's own unit (the
// WAL's commits per fsync).
func TestPromHistogramUnits(t *testing.T) {
	h := NewHistogram(1)
	for _, v := range []int64{1, 3, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.RawHistogram("wal_group_commits", "commits per fsync", nil, s)
	pw.Histogram("wal_sync_seconds", "fsync latency", []Label{{"log", "a"}}, s)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP wal_group_commits commits per fsync
# TYPE wal_group_commits histogram
wal_group_commits_bucket{le="1"} 1
wal_group_commits_bucket{le="3"} 3
wal_group_commits_bucket{le="15"} 4
wal_group_commits_bucket{le="+Inf"} 4
wal_group_commits_sum 17
wal_group_commits_count 4
# HELP wal_sync_seconds fsync latency
# TYPE wal_sync_seconds histogram
wal_sync_seconds_bucket{log="a",le="1e-09"} 1
wal_sync_seconds_bucket{log="a",le="3e-09"} 3
wal_sync_seconds_bucket{log="a",le="1.5e-08"} 4
wal_sync_seconds_bucket{log="a",le="+Inf"} 4
wal_sync_seconds_sum{log="a"} 1.7e-08
wal_sync_seconds_count{log="a"} 4
`
	if got := buf.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
