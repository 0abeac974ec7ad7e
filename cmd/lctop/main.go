// Command lctop is a top-like terminal viewer for a running lcserve:
// it polls /stats and renders the runtime census, per-lock wait
// quantiles with p99 sparklines and convoy marks, and the blame
// leaderboard — who blocks whom, by acquire site.
//
//	lctop -addr localhost:8080              # live view, redrawn every 2s
//	lctop -addr localhost:8080 -interval 1s
//	lctop -addr localhost:8080 -once        # one plain frame and exit (CI / scripts)
//
// Each frame covers the interval since the previous read: a lock's
// waits, p50 and p99 come from the difference of two reads of its
// cumulative wait histogram, so a lock that was hot an hour ago and is
// idle now reads idle. -once reads /stats twice, -interval apart, and
// prints that interval's frame. The live view redraws in place with
// ANSI escapes; -once prints without them, so its output is
// pipeline-friendly.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/internal/golc/obs"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/server"
)

// A lock whose interval wait p99 stays over convoyP99 for convoyFrames
// consecutive frames carries the convoy mark. trendLen is how many
// interval p99s a lock's sparkline keeps.
const (
	convoyP99    = 10 * time.Millisecond
	convoyFrames = 3
	trendLen     = 32
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "lcserve address (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll/redraw interval; with -once, the gap between its two reads")
		once     = flag.Bool("once", false, "print one frame without ANSI escapes and exit (CI mode)")
		topLocks = flag.Int("locks", 15, "lock rows to show")
		topBlame = flag.Int("blame", 10, "blame leaderboard rows to show")
	)
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	v := &viewer{client: &http.Client{Timeout: 10 * time.Second}, base: base,
		topLocks: *topLocks, topBlame: *topBlame}

	if *once {
		frame, err := v.once(*interval)
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
	// The first read opens the first interval; each tick closes one.
	v.render()
	for {
		select {
		case <-stop:
			fmt.Println()
			return
		case <-tick.C:
		}
		frame, err := v.render()
		if err != nil {
			frame = "lctop: " + err.Error() + " (retrying)\n"
		}
		// Repaint: home the cursor, clear each line as it is rewritten,
		// then clear whatever a taller previous frame left below.
		fmt.Print("\x1b[H" + strings.ReplaceAll(frame, "\n", "\x1b[K\n") + "\x1b[J")
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

// viewer turns successive /stats reads into frames. locks is the last
// read's, by lock name: what the next frame needs of the previous ones.
type viewer struct {
	client             *http.Client
	base               string
	topLocks, topBlame int
	locks              map[string]*lockView
}

// lockView is one lock name as of a read: its census at the read, and
// its waits and their quantiles since the read before.
type lockView struct {
	name, policy       string
	spinning, sleeping int64
	waits              uint64
	p50, p99           int64
	wait               obs.HistSnapshot // cumulative wait histogram
	p99s               []int64          // interval p99s, oldest first, at most trendLen
	streak             int              // consecutive frames with p99 over convoyP99
}

// once is -once: two reads of /stats, interval apart, and the frame of
// the interval between them.
func (v *viewer) once(interval time.Duration) (string, error) {
	if _, err := v.render(); err != nil {
		return "", err
	}
	time.Sleep(interval)
	return v.render()
}

// render reads /stats once, folds it into v and lays out the frame of
// the interval since the previous read as a string (so live mode can
// repaint it atomically).
func (v *viewer) render() (string, error) {
	var stats server.Stats
	if err := getJSON(v.client, v.base+"/stats", &stats); err != nil {
		return "", err
	}

	var b strings.Builder
	rt := stats.Runtime
	fmt.Fprintf(&b, "lctop — %s  |  %s  |  %d shards, %d keys, %s latches\n",
		v.base, time.Now().Format("15:04:05"), stats.Shards, stats.Keys, stats.LatchPolicy)
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

	renderLocks(&b, v.step(rt.Locks), v.topLocks)
	renderBlame(&b, stats.BlameTop, v.topBlame)
	return b.String(), nil
}

// step folds one read's locks into v and returns their views. Locks
// sharing a name fold into one view (names need not be unique), and a
// name gone from the read leaves v. The first read only opens the first
// interval: its views reach back to each lock's start, so they enter no
// trend and no convoy count.
func (v *viewer) step(locks []lcrt.LockStats) []*lockView {
	prev := v.locks
	v.locks = make(map[string]*lockView, len(locks))
	var views []*lockView
	for _, ls := range locks {
		l := v.locks[ls.Name]
		if l == nil {
			l = &lockView{name: ls.Name, policy: ls.Policy}
			v.locks[ls.Name] = l
			views = append(views, l)
		}
		l.spinning += ls.SpinningNow
		l.sleeping += ls.SleepingNow
		l.wait.Merge(ls.Wait)
	}
	for _, l := range views {
		var p lockView
		if prev[l.name] != nil {
			p = *prev[l.name]
		}
		if l.wait.Count < p.wait.Count {
			// A lock of this name closed since the last read: the
			// difference would run negative, so the name starts over.
			p.wait = obs.HistSnapshot{}
		}
		d := l.wait.Sub(p.wait)
		l.waits, l.p50, l.p99 = d.Count, d.Quantile(0.50), d.Quantile(0.99)
		if prev == nil {
			continue
		}
		if l.p99 > int64(convoyP99) {
			l.streak = p.streak + 1
		}
		l.p99s = append(p.p99s, l.p99)
		if len(l.p99s) > trendLen {
			l.p99s = l.p99s[1:]
		}
	}
	return views
}

// renderLocks draws the n locks with the highest interval wait p99,
// each with a sparkline of its p99 over the recent frames.
func renderLocks(b *strings.Builder, rows []*lockView, n int) {
	if len(rows) == 0 {
		fmt.Fprintf(b, "locks: none registered\n\n")
		return
	}
	slices.SortStableFunc(rows, func(a, b *lockView) int { return cmp.Compare(b.p99, a.p99) })
	if len(rows) > n {
		rows = rows[:n]
	}
	fmt.Fprintf(b, "%-24s %-6s %5s %5s %8s %10s %10s  %-32s\n",
		"LOCK", "POLICY", "SPIN", "SLEEP", "WAITS", "P50", "P99", "P99 TREND")
	for _, r := range rows {
		flag := " "
		if r.streak >= convoyFrames {
			flag = "!" // convoy: p99 over convoyP99 for convoyFrames frames
		}
		fmt.Fprintf(b, "%-24s %-6s %5d %5d %8d %10s %10s %s%-32s\n",
			clip(r.name, 24), clip(r.policy, 6), r.spinning, r.sleeping, r.waits,
			fmtNs(r.p50), fmtNs(r.p99), flag, sparkline(r.p99s))
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
// rightmost.
func sparkline(vs []int64) string {
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
