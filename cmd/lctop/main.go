// Command lctop is a top-like terminal viewer for a running lcserve:
// it polls /stats and /stats/history and renders the runtime census,
// per-lock wait-p99 sparklines with convoy flags, and the blame
// leaderboard — who blocks whom, by acquire site.
//
//	lctop -addr localhost:8080              # live view, redrawn every 2s
//	lctop -addr localhost:8080 -interval 1s
//	lctop -addr localhost:8080 -once        # one plain snapshot and exit (CI / scripts)
//
// The live view redraws in place with ANSI escapes; -once prints one
// frame without them, so the output is pipeline-friendly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "lcserve address (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll/redraw interval")
		once     = flag.Bool("once", false, "print one frame without ANSI escapes and exit (CI mode)")
		topLocks = flag.Int("locks", 15, "lock rows to show")
		topBlame = flag.Int("blame", 10, "blame leaderboard rows to show")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	if *once {
		frame, err := render(client, base, *topLocks, *topBlame)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lctop:", err)
			os.Exit(1)
		}
		fmt.Print(frame)
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	fmt.Print("\x1b[2J") // clear once; frames repaint from the top-left
	for {
		frame, err := render(client, base, *topLocks, *topBlame)
		if err != nil {
			frame = "lctop: " + err.Error() + " (retrying)\n"
		}
		// Repaint: home the cursor, clear each line as it is rewritten,
		// then clear whatever a taller previous frame left below.
		fmt.Print("\x1b[H" + strings.ReplaceAll(frame, "\n", "\x1b[K\n") + "\x1b[J")
		select {
		case <-stop:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// render fetches one round of /stats + /stats/history and lays out the
// frame as a string (so live mode can repaint it atomically).
func render(client *http.Client, base string, topLocks, topBlame int) (string, error) {
	var stats server.Stats
	if err := getJSON(client, base+"/stats", &stats); err != nil {
		return "", err
	}
	var hist server.History
	if err := getJSON(client, base+"/stats/history", &hist); err != nil {
		return "", err
	}

	var b strings.Builder
	rt := stats.Runtime
	fmt.Fprintf(&b, "lctop — %s  |  %s  |  %d shards, %d keys, %s latches\n",
		base, time.Now().Format("15:04:05"), stats.Shards, stats.Keys, stats.LatchPolicy)
	fmt.Fprintf(&b, "runtime: target=%d load=%d (runq=%.1f os=%+d) sleeping=%d spinners=%d locks=%d  wakes[ctl=%d unlock=%d timeout=%d]  sampling[hold=1/%d blame=1/%d]\n",
		rt.Target, rt.Load, rt.RunQueue, rt.OSExcess, rt.Sleeping, rt.Spinners, rt.LocksRegistered,
		rt.ControllerWakes, rt.UnlockWakes, rt.TimeoutWakes,
		stats.Sampling.Hold, stats.Sampling.Blame)
	if w := stats.Wal; w != nil {
		// Group size (commits per fsync) is the batching story in one
		// number: mean ~1 means every commit pays its own fsync, large
		// means the convoy is amortizing.
		wedge := ""
		if w.Wedged != "" {
			wedge = "  WEDGED: " + w.Wedged
		}
		fmt.Fprintf(&b, "wal: durable=%d applied=%d segs=%d appends=%d syncs=%d  group[mean=%.1f p99=%d]  fsync[p50=%s p99=%s]%s\n",
			w.DurableLSN, w.AppliedLSN, w.Segments, w.Appends, w.Syncs,
			float64(w.GroupSize.MeanNs), w.GroupSize.P99Ns,
			fmtNs(w.SyncLatency.P50Ns), fmtNs(w.SyncLatency.P99Ns), wedge)
	}
	fmt.Fprintln(&b)

	renderLocks(&b, hist.Records, topLocks)
	renderBlame(&b, stats.BlameTop, topBlame)
	return b.String(), nil
}

// renderLocks draws the per-lock table from the newest history record,
// with a sparkline of each lock's wait-p99 across the retained series.
func renderLocks(b *strings.Builder, recs []lcrt.HistoryRecord, n int) {
	if len(recs) == 0 {
		fmt.Fprintf(b, "locks: no history yet (is -history-interval long, or the server just up?)\n\n")
		return
	}
	latest := recs[len(recs)-1]
	series := make(map[string][]int64, len(latest.Locks))
	for _, r := range recs {
		for _, lt := range r.Locks {
			series[lt.Name] = append(series[lt.Name], lt.WaitP99)
		}
	}
	ticks := append([]lcrt.LockTick(nil), latest.Locks...)
	sort.SliceStable(ticks, func(i, j int) bool { return ticks[i].WaitP99 > ticks[j].WaitP99 })
	if len(ticks) > n {
		ticks = ticks[:n]
	}
	fmt.Fprintf(b, "%-24s %-6s %5s %5s %8s %10s %10s  %-32s\n",
		"LOCK", "POLICY", "SPIN", "SLEEP", "WAITS/s", "P50", "P99", "P99 TREND")
	for _, lt := range ticks {
		flag := " "
		if lt.Convoy {
			flag = "!" // convoy: p99 over threshold for consecutive ticks
		}
		fmt.Fprintf(b, "%-24s %-6s %5d %5d %8d %10s %10s %s%-32s\n",
			clip(lt.Name, 24), clip(lt.Policy, 6), lt.Spinning, lt.Sleeping, lt.Waits,
			fmtNs(lt.WaitP50), fmtNs(lt.WaitP99), flag, sparkline(series[lt.Name], 32))
	}
	fmt.Fprintln(b)
}

func renderBlame(b *strings.Builder, entries []obs.BlameEntry, n int) {
	if len(entries) == 0 {
		fmt.Fprintf(b, "blame: no sampled contention yet\n")
		return
	}
	if len(entries) > n {
		entries = entries[:n]
	}
	fmt.Fprintf(b, "%-34s %-34s %-18s %8s %10s\n", "BLOCKED (waiter site)", "BLAMED (holder site)", "LOCK", "BLOCKS", "BLOCKED")
	for _, e := range entries {
		holder := e.Holder
		if holder == "" {
			holder = "unknown"
		}
		fmt.Fprintf(b, "%-34s %-34s %-18s %8d %10s\n",
			clip(e.Waiter, 34), clip(holder, 34), clip(e.Lock, 18), e.Count, fmtNs(int64(e.Ns)))
	}
}

var sparkRunes = []rune(" ▁▂▃▄▅▆▇█")

// sparkline renders vs scaled to the series' own max, newest value
// rightmost, clipped to the last width points.
func sparkline(vs []int64, width int) string {
	if len(vs) > width {
		vs = vs[len(vs)-width:]
	}
	var max int64
	for _, v := range vs {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(vs))
	}
	out := make([]rune, len(vs))
	for i, v := range vs {
		idx := int(v * int64(len(sparkRunes)-1) / max)
		if v > 0 && idx == 0 {
			idx = 1 // nonzero should be visible
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

// fmtNs renders nanoseconds with an adaptive unit, top-style.
func fmtNs(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/float64(time.Millisecond))
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.1fµs", float64(ns)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
