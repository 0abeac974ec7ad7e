package experiments

import (
	"testing"
	"time"
)

// quick returns the scaled-down config used for shape tests.
func quick() Config { return Quick().withDefaults() }

// seriesByName finds a series or fails the test.
func seriesByName(t *testing.T, f *Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", f.ID, name)
	return Series{}
}

func maxY(s Series) float64 {
	m := 0.0
	for _, y := range s.Y {
		if y > m {
			m = y
		}
	}
	return m
}

func lastY(s Series) float64 { return s.Y[len(s.Y)-1] }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-control", "ablation-mcs",
		"fig01", "fig03", "fig04", "fig05", "fig06",
		"fig08", "fig09", "fig10", "fig11", "fig12",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", quick()); err == nil {
		t.Fatal("no error for unknown experiment")
	}
}

func TestFig01Shape(t *testing.T) {
	t.Parallel()
	f, err := Run("fig01", quick())
	if err != nil {
		t.Fatal(err)
	}
	spin := seriesByName(t, f, "Spinning")
	block := seriesByName(t, f, "Blocking")
	// Spinning peaks then collapses past 100% load.
	if lastY(spin) > 0.75*maxY(spin) {
		t.Fatalf("spinning did not collapse: last=%.0f peak=%.0f", lastY(spin), maxY(spin))
	}
	// Blocking caps below the spinning peak (handoffs context-switch).
	if maxY(block) > 0.9*maxY(spin) {
		t.Fatalf("blocking not capped: block peak=%.0f spin peak=%.0f", maxY(block), maxY(spin))
	}
	// At overload, blocking beats collapsed spinning.
	if lastY(block) < lastY(spin) {
		t.Fatalf("blocking (%.0f) should beat collapsed spinning (%.0f) at max load",
			lastY(block), lastY(spin))
	}
}

func TestFig03Shape(t *testing.T) {
	t.Parallel()
	f, err := Run("fig03", quick())
	if err != nil {
		t.Fatal(err)
	}
	inv := seriesByName(t, f, "Prio-Invert")
	cont := seriesByName(t, f, "Contention")
	// No inversion below 100% load; lots at 2x.
	cfg := quick()
	for i, x := range inv.X {
		if x < float64(cfg.Contexts) && inv.Y[i] > 2 {
			t.Fatalf("inversion %.1f%% at %v threads (below 100%% load)", inv.Y[i], x)
		}
	}
	if lastY(inv) < 15 {
		t.Fatalf("inversion only %.1f%% at max overload, want >15%%", lastY(inv))
	}
	// True contention is bounded. (It runs higher here than the paper's
	// <10%-at-peak because this TM-1's hot latch saturates before the
	// machine does — the calibration that positions the Figure 4 knee —
	// so near-peak loads queue spinners at the saturated latch. The
	// inversion signature, which is what the figure demonstrates, is
	// unaffected: zero below 100% load, dominant above.)
	if maxY(cont) > 60 {
		t.Fatalf("contention %.1f%% too large", maxY(cont))
	}
}

func TestFig04Shape(t *testing.T) {
	t.Parallel()
	f, err := Run("fig04", quick())
	if err != nil {
		t.Fatal(err)
	}
	sw := seriesByName(t, f, "SwitchRate")
	tp := seriesByName(t, f, "Throughput")
	// Switch rate grows strongly once the mutex starts blocking.
	if lastY(sw) < 3*sw.Y[0] {
		t.Fatalf("switch rate did not climb: first=%.0f last=%.0f", sw.Y[0], lastY(sw))
	}
	// Throughput saturates (no collapse to zero, no unbounded growth).
	if lastY(tp) < 0.5*maxY(tp) {
		t.Fatalf("throughput collapsed too hard: %.0f vs peak %.0f", lastY(tp), maxY(tp))
	}
}

func TestFig05Shape(t *testing.T) {
	t.Parallel()
	cfg := quick()
	cfg.Window = 50 * time.Millisecond
	f, err := Run("fig05", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Notes) < 3 {
		t.Fatalf("missing variability notes: %v", f.Notes)
	}
	s := seriesByName(t, f, "ActiveThreads")
	if len(s.X) < 50 {
		t.Fatalf("trace too short: %d points", len(s.X))
	}
	// The backoff phase must show wide swings (the paper's point):
	// range of active threads spans more than half the target.
	lo, hi := s.Y[0], s.Y[0]
	for _, y := range s.Y[len(s.Y)/2:] { // active phase
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	if hi-lo < float64(cfg.Contexts)/4 {
		t.Fatalf("backoff phase suspiciously stable: range [%.0f, %.0f]", lo, hi)
	}
}

func TestFig06Shape(t *testing.T) {
	t.Parallel()
	cfg := quick()
	f, err := Run("fig06", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := seriesByName(t, f, "CPUsUtilized")
	// TPC-C with clients = contexts/2: most threads blocked at any
	// instant, so runnable stays well below the client count but above
	// zero, and it varies.
	var mean float64
	lo, hi := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		mean += y
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	mean /= float64(len(s.Y))
	clients := float64(cfg.Contexts / 2)
	if mean >= clients {
		t.Fatalf("mean runnable %.1f >= clients %.0f; no blocking?", mean, clients)
	}
	if hi == lo {
		t.Fatal("runnable count never varied")
	}
}

func TestFig08Shape(t *testing.T) {
	t.Parallel()
	f, err := Run("fig08", quick())
	if err != nil {
		t.Fatal(err)
	}
	target := seriesByName(t, f, "Target")
	measured := seriesByName(t, f, "Measured")
	if len(target.X) != 5 {
		t.Fatalf("expected 5 steps, got %d", len(target.X))
	}
	// At the end of each step the measured running count must be near
	// the desired level: compare the measured value just before each
	// next step boundary.
	for i := range target.X {
		stepEnd := target.X[i] + 0.014 // just before the 15ms step ends
		var got float64
		for j := range measured.X {
			if measured.X[j] <= stepEnd {
				got = measured.Y[j]
			}
		}
		want := target.Y[i]
		if got < want-3 || got > want+3 {
			t.Fatalf("step %d: measured %.0f, want %.0f±3", i, got, want)
		}
	}
}

func TestFig09Shape(t *testing.T) {
	t.Parallel()
	f, err := Run("fig09", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(f.Series))
	}
	// LC at 150% must never lose to raw 150% (it may roughly tie at
	// quick scale where the lock is unsaturated).
	raw := f.Series[1]
	lc := f.Series[2]
	for i := range raw.Y {
		if lc.Y[i] < 0.9*raw.Y[i] {
			t.Fatalf("LC (%.0f) below raw 150%% (%.0f) at delay %v", lc.Y[i], raw.Y[i], raw.X[i])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	cfg := quick()
	cfg.Warmup = 5 * time.Millisecond
	cfg.Window = 25 * time.Millisecond
	f, err := Run("fig10", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.X) != 8 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		// The 7ms point (index 4) must not lose to the 100µs point
		// (index 0): very frequent accounting reads are pure overhead.
		// (At quick scale the margin can be within noise; the full-scale
		// run in EXPERIMENTS.md shows the paper's clear middle-band win.)
		if s.Y[4] < 0.97*s.Y[0] {
			t.Fatalf("series %s: 7ms (%.0f) worse than 100µs (%.0f)", s.Name, s.Y[4], s.Y[0])
		}
	}
}

func TestFig11Shape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fig11 sweeps 3 workloads x 3 locks")
	}
	cfg := quick()
	cfg.Warmup = 5 * time.Millisecond
	cfg.Window = 25 * time.Millisecond
	f, err := Run("fig11", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 9 {
		t.Fatalf("want 9 series, got %d", len(f.Series))
	}
	// TM-1: LC at max overload must beat TP-MCS at max overload.
	tm1TP := seriesByName(t, f, "tm1/tp-mcs")
	tm1LC := seriesByName(t, f, "tm1/lc")
	if lastY(tm1LC) < 1.2*lastY(tm1TP) {
		t.Fatalf("TM-1: LC (%.3f) should clearly beat TP-MCS (%.3f) at overload",
			lastY(tm1LC), lastY(tm1TP))
	}
	// LC keeps most of its peak at the highest load (paper: 85-92%).
	if lastY(tm1LC) < 0.7*maxY(tm1LC) {
		t.Fatalf("TM-1 LC lost too much at overload: %.3f of peak %.3f",
			lastY(tm1LC), maxY(tm1LC))
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	cfg := quick()
	cfg.Warmup = 5 * time.Millisecond
	cfg.Window = 25 * time.Millisecond
	f, err := Run("fig12", cfg)
	if err != nil {
		t.Fatal(err)
	}
	selfRaw := seriesByName(t, f, "Self+LC (other raw)")
	// Competition reduces but must not starve self (paper: ~35% of
	// peak retained even against a non-LC adversary at 150%).
	if lastY(selfRaw) < 0.15*selfRaw.Y[0] {
		t.Fatalf("self starved by raw adversary: %.0f vs solo %.0f",
			lastY(selfRaw), selfRaw.Y[0])
	}
	selfBoth := seriesByName(t, f, "Self+LC (other LC)")
	otherLC := seriesByName(t, f, "Other+LC")
	// When both use LC, the pair shares: other makes real progress.
	if lastY(otherLC) == 0 {
		t.Fatal("LC'd other process starved")
	}
	if lastY(selfBoth) == 0 {
		t.Fatal("self starved when sharing with LC'd other")
	}
}

func TestAblationMCSShape(t *testing.T) {
	t.Parallel()
	f, err := Run("ablation-mcs", quick())
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("want 4 variants, got %d", len(s.Y))
	}
	tpmcs, mcs, lc, lcMCS := s.Y[0], s.Y[1], s.Y[2], s.Y[3]
	// Load control over plain MCS must land near load control over
	// TP-MCS (paper §5.4: only a minor penalty), and both far above
	// the uncontrolled spinlocks at 150% load.
	if lcMCS < 0.75*lc {
		t.Fatalf("LC-over-MCS (%.0f) too far below LC (%.0f)", lcMCS, lc)
	}
	if lc < 1.2*tpmcs {
		t.Fatalf("LC (%.0f) should clearly beat raw TP-MCS (%.0f) at 150%%", lc, tpmcs)
	}
	// Plain MCS without LC is the worst: convoys through preempted
	// queue members.
	if mcs > tpmcs {
		t.Logf("note: plain MCS (%.0f) beat TP-MCS (%.0f); acceptable at quick scale", mcs, tpmcs)
	}
}

func TestAblationControlShape(t *testing.T) {
	t.Parallel()
	f, err := Run("ablation-control", quick())
	if err != nil {
		t.Fatal(err)
	}
	s := f.Series[0]
	if len(s.Y) != 4 {
		t.Fatalf("want 4 variants, got %d", len(s.Y))
	}
	// All controller variants must deliver comparable throughput (the
	// filters must not break the controller).
	base := s.Y[0]
	for i, y := range s.Y {
		if y < 0.6*base {
			t.Fatalf("variant %d collapsed: %.0f vs raw %.0f", i, y, base)
		}
	}
}

func TestTableRendering(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{30, 40}},
		},
		Notes: []string{"n1"},
	}
	tab := f.Table()
	for _, want := range []string{"# t — T", "note: n1", "a", "b", "10", "40", "-"} {
		if !contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDeterministicFigure(t *testing.T) {
	t.Parallel()
	cfg := quick()
	cfg.Warmup = 5 * time.Millisecond
	cfg.Window = 20 * time.Millisecond
	a, err := Run("fig01", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig01", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatal("same config produced different figures")
	}
}
