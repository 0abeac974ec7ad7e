package golc

import (
	"math"
	"testing"
	"time"

	lcrt "repro/internal/golc/runtime"
)

// BenchmarkRecorderOverhead is the flight recorder's own cost, reported
// beside its signal and gated: the uncontended Lock/Unlock fast path
// with the recorder enabled (sampled hold stamps plus a per-acquire
// sequence bump) against disabled, failing past 5%. Fixed iteration
// counts and best-of-3 keep scheduler noise from failing the gate
// spuriously: the best round is the cleanest look each configuration
// got at the hardware. It is a benchmark so that tier-1 has no
// timing-sensitive test; CI runs it alone:
//
//	go test -run '^$' -bench RecorderOverhead -benchtime 1x ./internal/golc
func BenchmarkRecorderOverhead(b *testing.B) {
	const (
		iters  = 10_000_000
		rounds = 3
		maxPct = 5.0
	)
	measure := func(enabled bool) float64 {
		rt := lcrt.New(lcrt.Options{})
		rt.Start()
		defer rt.Stop()
		rt.Recorder().SetEnabled(enabled)
		mu := New("recorder-overhead", WithRuntime(rt))
		best := math.MaxFloat64
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				mu.Lock()
				mu.Unlock() //nolint:staticcheck // empty critical section is the benchmark
			}
			if ns := float64(time.Since(t0).Nanoseconds()) / iters; ns < best {
				best = ns
			}
		}
		return best
	}
	for i := 0; i < b.N; i++ {
		// Disabled first, then enabled: if anything warms up (CPU clocks,
		// branch predictors), the later configuration benefits — biasing
		// AGAINST the overhead being bounded.
		off := measure(false)
		on := measure(true)
		pct := (on - off) / off * 100
		b.ReportMetric(off, "disabled_ns/op")
		b.ReportMetric(on, "enabled_ns/op")
		b.ReportMetric(pct, "overhead_%")
		if pct > maxPct {
			b.Fatalf("flight-recorder overhead %+.2f%% exceeds the %.0f%% budget (disabled %.2f ns/op, enabled %.2f ns/op)",
				pct, maxPct, off, on)
		}
	}
}
