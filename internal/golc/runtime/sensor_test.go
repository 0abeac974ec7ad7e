package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseLoadavgRunning(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     int
		ok       bool
	}{
		{"well-formed", "0.73 2.22 2.70 2/85 16657\n", 2, true},
		{"busy", "31.02 8.10 3.00 117/2048 99\n", 117, true},
		{"no pid field", "0.00 0.00 0.00 1/1", 1, true},
		{"short", "0.73 2.22 2.70", 0, false},
		{"empty", "", 0, false},
		{"no slash", "0.73 2.22 2.70 285 16657", 0, false},
		{"non-numeric", "0.73 2.22 2.70 x/85 16657", 0, false},
		{"negative", "0.73 2.22 2.70 -3/85 16657", 0, false},
	} {
		got, ok := parseLoadavgRunning([]byte(tc.in))
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: parseLoadavgRunning(%q) = %d, %v; want %d, %v", tc.name, tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestOSExcess: the file's nr_running less the reader less the CPUs;
// 0 — not an error, not a second code path — where it cannot be read.
func TestOSExcess(t *testing.T) {
	dir := t.TempDir()
	ncpu := goruntime.NumCPU()
	for _, tc := range []struct {
		name, content string
		want          int
	}{
		{"loaded", "9.00 9.00 9.00 12/85 1\n", 12 - 1 - ncpu},
		{"idle", "0.00 0.00 0.00 1/85 1\n", -ncpu},
		{"garbage", "not a loadavg\n", 0},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.content), 0o600); err != nil {
			t.Fatal(err)
		}
		s := newSensor(path)
		if got := s.osExcess(); got != tc.want {
			t.Errorf("%s: osExcess = %d, want %d", tc.name, got, tc.want)
		}
		// The descriptor is kept open and re-read from offset 0.
		if err := os.WriteFile(path, []byte("0.00 0.00 0.00 40/85 1\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		if got, want := s.osExcess(), 40-1-ncpu; got != want {
			t.Errorf("%s: osExcess after rewrite = %d, want %d", tc.name, got, want)
		}
		s.close()
	}
	s := newSensor(filepath.Join(dir, "missing"))
	defer s.close()
	if got := s.osExcess(); got != 0 {
		t.Errorf("missing file: osExcess = %d, want 0", got)
	}
}

// fakeLoadavg returns a sensor whose OS term reads a temporary
// /proc/loadavg stand-in, and a setter for the file's nr_running (the
// descriptor stays open and is re-read, as TestOSExcess checks). The
// run-queue term is this process's own.
func fakeLoadavg(t *testing.T, running int) (*sensor, func(running int)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "loadavg")
	set := func(running int) {
		t.Helper()
		if err := os.WriteFile(path, []byte(fmt.Sprintf("1.00 1.00 1.00 %d/85 1\n", running)), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	set(running)
	s := newSensor(path)
	t.Cleanup(s.close)
	return s, set
}

// TestRunQueueEstimate pins the scale of the sampled signal: with 32
// always-runnable goroutines on 2 Ps, 30 are queued at any instant, and
// the estimate — sampled 1 transition in schedTrackingPeriod, bucketed,
// and blind to waits still in progress — must land within 4x of that.
// A wrong schedTrackingPeriod (the Go runtime's constant is not
// exported) would be off by 8x.
func TestRunQueueEstimate(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	const workers = 32
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Yield like a spinning waiter does, so waits end (and are
			// counted) many times within the window.
			for !stop.Load() {
				for j := 0; j < 256; j++ {
					_ = stop.Load()
				}
				goruntime.Gosched()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let all 32 start
	s := newSensor(loadavgPath)
	defer s.close()
	time.Sleep(50 * time.Millisecond)
	got := s.runQueue()
	stop.Store(true)
	wg.Wait()
	const want = workers - 2
	if got < 4 || got < want/4.0 || got > want*4.0 {
		t.Fatalf("run-queue estimate = %.1f with %d queued, want within 4x", got, want)
	}
	t.Logf("run-queue estimate = %.1f with %d queued", got, want)
}

// TestRunQueueIdle: a process with nothing queued reads 0 once floored,
// so an idle sensor can never ask a waiter to park. One long window:
// the only wait in it is this goroutine's own wake-up, which would have
// to take 25 ms (and be the 1 in 8 that is timed) to read as 1.
func TestRunQueueIdle(t *testing.T) {
	s := newSensor(loadavgPath)
	defer s.close()
	time.Sleep(200 * time.Millisecond)
	if got := int(s.runQueue()); got != 0 {
		t.Fatalf("idle run-queue estimate = %d, want 0", got)
	}
}
