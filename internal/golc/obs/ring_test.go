package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRingBounded overfills the ring and checks memory stays bounded
// and the survivors are the newest events per shard.
func TestRingBounded(t *testing.T) {
	r := NewRing(1, 16)
	for i := 1; i <= 100; i++ {
		r.emit(Event{TS: int64(i), Type: EvPark})
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	evs := r.Since(-1)
	if len(evs) != 16 {
		t.Fatalf("Since returned %d events, want 16", len(evs))
	}
	for i, e := range evs {
		if want := int64(85 + i); e.TS != want {
			t.Fatalf("event %d TS = %d, want %d (oldest must be overwritten, order kept)", i, e.TS, want)
		}
	}
}

// TestRingSince filters by timestamp.
func TestRingSince(t *testing.T) {
	r := NewRing(2, 32)
	for i := 1; i <= 20; i++ {
		r.emit(Event{TS: int64(i), Type: EvWake})
	}
	evs := r.Since(15)
	if len(evs) != 6 { // 15..20
		t.Fatalf("Since(15) returned %d events, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

// TestRingConcurrent hammers emit and Since together (run under -race
// in CI).
func TestRingConcurrent(t *testing.T) {
	const shards, size = 4, 64
	r := NewRing(shards, size)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
					r.emit(Event{TS: i, Type: EvPark, Name: "lock"})
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = r.Since(0)
		_ = r.Len()
	}
	close(stop)
	wg.Wait()
	if r.Len() > shards*size {
		t.Fatalf("ring exceeded capacity: %d > %d", r.Len(), shards*size)
	}
}

// TestRecorderSwitch checks the enabled switch gates every recording
// path and the HoldStamp and BlameSampled sampling masks behave.
func TestRecorderSwitch(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder must start enabled")
	}
	r.SetEnabled(false)
	r.Event(EvPark, "l", "", 0)
	r.Span(EvWake, "l", "timeout", 0, 100)
	if got := r.Ring().Len(); got != 0 {
		t.Fatalf("disabled recorder captured %d events", got)
	}
	if s := r.HoldStamp(0); s != 0 {
		t.Fatalf("disabled HoldStamp = %d, want 0", s)
	}
	r.SetEnabled(true)
	r.Event(EvPark, "l", "", 0)
	if got := r.Ring().Len(); got != 1 {
		t.Fatalf("enabled recorder captured %d events, want 1", got)
	}
	r.SetHoldSampling(8)
	var sampled int
	for seq := uint64(0); seq < 64; seq++ {
		if r.HoldStamp(seq) != 0 {
			sampled++
		}
	}
	if sampled != 8 {
		t.Fatalf("1-in-8 hold sampling stamped %d of 64", sampled)
	}
	r.SetHoldSampling(1)
	if r.HoldStamp(3) == 0 {
		t.Fatal("sample-every-hold must stamp every seq")
	}

	// The blame gate draws from the caller's sequence, as HoldStamp does.
	sampled = 0
	for seq := uint64(1); seq <= 4*DefaultBlameSampling; seq++ {
		if r.BlameSampled(seq) {
			sampled++
			if seq%DefaultBlameSampling != 0 {
				t.Fatalf("blame sampled seq %d, want only multiples of %d", seq, DefaultBlameSampling)
			}
		}
	}
	if sampled != 4 {
		t.Fatalf("1-in-%d blame sampling took %d of %d", DefaultBlameSampling, sampled, 4*DefaultBlameSampling)
	}
	r.SetEnabled(false)
	if r.BlameSampled(DefaultBlameSampling) {
		t.Fatal("disabled recorder blame-sampled")
	}
}

// TestChromeTrace renders a trace and validates the JSON shape Chrome
// and Perfetto require.
func TestChromeTrace(t *testing.T) {
	events := []Event{
		{TS: 1000, Type: EvPark, Name: "kv/shard-001", Shard: 2},
		{TS: 5000, Dur: 3000, Type: EvWake, Name: "kv/shard-001", Label: "unlock", Shard: 2},
		{TS: 6000, Type: EvPolicySwap, Name: "kv/shard-001", Label: "block"},
		{TS: 7000, Type: EvTxnAbort, Label: "wait-die", Arg: 42},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []TraceProc{{Pid: 1, Name: "phase", Events: events}}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != len(events)+1 { // +1 process_name metadata
		t.Fatalf("got %d trace events, want %d", len(out.TraceEvents), len(events)+1)
	}
	if ph := out.TraceEvents[0]["ph"]; ph != "M" {
		t.Fatalf("first event ph = %v, want process metadata", ph)
	}
	for _, te := range out.TraceEvents[1:] {
		switch te["ph"] {
		case "X":
			if te["dur"].(float64) <= 0 {
				t.Fatalf("complete event without positive dur: %v", te)
			}
			// Span [ts, ts+dur] must end at the event's TS (µs).
			if ts, dur := te["ts"].(float64), te["dur"].(float64); ts+dur != 5.0 {
				t.Fatalf("span ends at %v µs, want 5", ts+dur)
			}
		case "i":
			if te["s"] != "t" {
				t.Fatalf("instant event missing thread scope: %v", te)
			}
		default:
			t.Fatalf("unexpected ph %v", te["ph"])
		}
		if _, ok := te["pid"]; !ok {
			t.Fatalf("event missing pid: %v", te)
		}
	}
}

// TestRingSinceWraparound interleaves timestamp ranges across shards
// (each emitter goroutine writes its own residue class) and overfills
// every touched shard, so Since must both walk each shard's wrapped
// buffer oldest-first and merge-sort across shards.
func TestRingSinceWraparound(t *testing.T) {
	const emitters, perEmitter, shards, shardSize = 4, 100, 4, 8
	r := NewRing(shards, shardSize)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				// Residue classes interleave: shard A's survivors
				// straddle shard B's, so ordering cannot come from
				// shard order alone.
				r.emit(Event{TS: int64(i*emitters + g), Type: EvPark})
			}
		}(g)
	}
	wg.Wait()

	if got := r.Len(); got > shards*shardSize {
		t.Fatalf("Len = %d exceeds the capacity %d", got, shards*shardSize)
	}
	all := r.Since(-1)
	if len(all) != r.Len() {
		t.Fatalf("Since(-1) returned %d events, Len says %d", len(all), r.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].TS < all[i-1].TS {
			t.Fatalf("Since(-1) out of order at %d: %d after %d", i, all[i].TS, all[i-1].TS)
		}
	}

	const cut = int64(emitters * perEmitter / 2)
	recent := r.Since(cut)
	for i, e := range recent {
		if e.TS < cut {
			t.Fatalf("Since(%d) leaked older event TS=%d at %d", cut, e.TS, i)
		}
		if i > 0 && e.TS < recent[i-1].TS {
			t.Fatalf("Since(%d) out of order at %d", cut, i)
		}
	}
	if len(recent) == 0 {
		t.Fatalf("Since(%d) returned nothing; wraparound dropped the newest half", cut)
	}
}
