// Blame attribution end-to-end: these tests live in the external
// golc_test package on purpose — blame labels skip golc's own frames,
// so a test that asserts on labels must acquire from what the profiler
// considers application code.
package golc_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
)

// hotAcquire is the known-hot acquire site: the pinning test funnels
// the dominant contention through here and asserts the blame
// leaderboard names it.
//
//go:noinline
func hotAcquire(mu *golc.Mutex, hold time.Duration) {
	mu.Lock()
	time.Sleep(hold)
	mu.Unlock()
}

// sideAcquire generates minor background contention that must NOT win
// the leaderboard.
//
//go:noinline
func sideAcquire(mu *golc.Mutex, hold time.Duration) {
	mu.Lock()
	time.Sleep(hold)
	mu.Unlock()
}

// holdAcquire signals on locked once it holds mu, then keeps holding
// — the deterministic "publishing holder" for handoff scenarios.
//
//go:noinline
func holdAcquire(mu *golc.Mutex, locked chan<- struct{}, hold time.Duration) {
	mu.Lock()
	locked <- struct{}{}
	time.Sleep(hold)
	mu.Unlock()
}

//go:noinline
func readAcquire(rw *golc.RWMutex) {
	rw.RLock()
	rw.RUnlock()
}

//go:noinline
func writeAcquire(rw *golc.RWMutex, locked chan<- struct{}, hold time.Duration) {
	rw.Lock()
	locked <- struct{}{}
	time.Sleep(hold)
	rw.Unlock()
}

// TestBlameLeaderboardPinsHotSite is the acceptance check for the
// blame profiler: hammer one known acquire site and assert the
// leaderboard's top entry names it — the actual site, on the actual
// lock, dominating a lesser competitor.
func TestBlameLeaderboardPinsHotSite(t *testing.T) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	rec := rt.Recorder()
	rec.SetBlameSampling(1)

	hot := golc.New("blame-hot", golc.WithRuntime(rt))
	side := golc.New("blame-side", golc.WithRuntime(rt))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				hotAcquire(hot, time.Millisecond)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				sideAcquire(side, 20*time.Microsecond)
			}
		}()
	}
	wg.Wait()

	top := rec.BlameTop(-1)
	if len(top) == 0 {
		t.Fatal("no blame edges recorded under contention at 1-in-1 sampling")
	}
	if !strings.Contains(top[0].Waiter, "hotAcquire") {
		t.Errorf("top blame waiter = %q, want the hotAcquire site\nleaderboard: %+v", top[0].Waiter, top)
	}
	if top[0].Lock != "blame-hot" {
		t.Errorf("top blame lock = %q, want blame-hot", top[0].Lock)
	}

	// The lock's slice of the matrix carries its blame volume.
	var count, ns uint64
	for _, e := range rec.BlameEdges() {
		if e.Lock == "blame-hot" {
			count += e.Count
			ns += e.Ns
		}
	}
	if count == 0 || ns == 0 {
		t.Errorf("blame-hot edges hold %d samples, %d ns; want both nonzero", count, ns)
	}
}

// TestBlameHolderAttribution checks the holder half of an edge: a
// waiter that blocks behind a slow-path (and therefore site-publishing)
// holder must blame that holder's acquire site by name. The handoff is
// staged explicitly because a barging fast-path reacquire never
// publishes a site — unknown holders there are honest, not a bug.
func TestBlameHolderAttribution(t *testing.T) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	rec := rt.Recorder()
	rec.SetBlameSampling(1)

	mu := golc.New("blame-handoff", golc.WithRuntime(rt))

	// Make the future holder come in contended so its acquisition is
	// sampled and its site published.
	mu.Lock()
	locked := make(chan struct{})
	go holdAcquire(mu, locked, 30*time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	mu.Unlock()
	<-locked // holdAcquire holds and has published its site

	done := make(chan struct{})
	go func() {
		defer close(done)
		hotAcquire(mu, 0)
	}()
	<-done

	found := false
	for _, e := range rec.BlameTop(-1) {
		if e.Lock == "blame-handoff" &&
			strings.Contains(e.Waiter, "hotAcquire") &&
			strings.Contains(e.Holder, "holdAcquire") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no hotAcquire->holdAcquire edge on blame-handoff; leaderboard: %+v", rec.BlameTop(-1))
	}
}

// TestBlameRWMutexReaderBlamesWriter checks the read-side attribution:
// readers convoyed behind a writer blame the writer's acquire site.
func TestBlameRWMutexReaderBlamesWriter(t *testing.T) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	rec := rt.Recorder()
	rec.SetBlameSampling(1)

	rw := golc.NewRW("blame-rw", golc.WithRuntime(rt))

	// The writer must come in contended (blame-sampled) so it
	// publishes its site: hold a read lock while it arrives.
	rw.RLock()
	locked := make(chan struct{})
	go writeAcquire(rw, locked, 30*time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	rw.RUnlock()
	<-locked // writer holds and has published writeAcquire's site

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readAcquire(rw)
		}()
	}
	wg.Wait()

	found := false
	for _, e := range rec.BlameTop(-1) {
		if e.Lock == "blame-rw" &&
			strings.Contains(e.Waiter, "readAcquire") &&
			strings.Contains(e.Holder, "writeAcquire") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no reader->writer blame edge on blame-rw; leaderboard: %+v", rec.BlameTop(-1))
	}
}
