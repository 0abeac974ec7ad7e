package wal_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/golc"
	lcrt "repro/internal/golc/runtime"
	"repro/internal/kv"
	"repro/internal/oltp"
	"repro/internal/wal"
)

// The kill -9 test: a child process (this test binary re-exec'd) runs
// transactions through the full oltp→wal commit path, recording every
// ACKNOWLEDGED commit to a synced side file; the parent SIGKILLs it
// mid-load, recovers the log into a fresh store, and checks the two
// durability invariants:
//
//  1. Every acknowledged commit is present (acked ⊆ recovered). The
//     reverse need not hold — a commit can be durable in a group
//     whose ack never reached the committer before the kill.
//  2. No write-set is partially applied: each transaction writes a
//     key PAIR with one shared value, so the recovered store must
//     hold both halves with equal values, or neither.
const crashChildEnv = "WAL_CRASH_CHILD_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return // unreachable: crashChild runs until killed
	}
	os.Exit(m.Run())
}

// crashChild commits pair-writes as fast as it can until the parent
// kills it. Each acked commit is appended to the "acked" side file and
// fsynced before the next transaction, so every line the parent reads
// was acknowledged strictly before the kill.
func crashChild(dir string) {
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	store := kv.New(kv.Options{Shards: 8, Runtime: rt})
	log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Runtime: rt, Policy: golc.LoadControlled}, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(3)
	}
	db := oltp.New(store, oltp.Options{Runtime: rt, WAL: log, MaxRetries: -1})
	acked, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(3)
	}

	var seq atomic.Uint64
	const workers = 8
	for g := 0; g < workers; g++ {
		go func(g int) {
			for {
				n := seq.Add(1)
				val := fmt.Sprintf("v%d", n)
				a := fmt.Sprintf("pair/%d/a", n)
				b := fmt.Sprintf("pair/%d/b", n)
				err := db.Run(func(t *oltp.Txn) error {
					if err := t.Write("crash", a, val); err != nil {
						return err
					}
					return t.Write("crash", b, val)
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "child txn:", err)
					os.Exit(3)
				}
				// The ack record itself must be durable before we move
				// on, or the parent could read an acked line the child
				// never actually persisted. One line, one fsync —
				// serialized through a mutexed writer would batch
				// better, but the child's throughput is irrelevant.
				line := fmt.Sprintf("%s %s %s\n", a, b, val)
				if _, err := acked.Write([]byte(line)); err == nil {
					err = acked.Sync()
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "child ack:", err)
					os.Exit(3)
				}
			}
		}(g)
	}
	// Signal readiness on stdout after the first commits land, then
	// run until SIGKILLed.
	for seq.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("CHILD-RUNNING")
	select {}
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec crash test skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashRecovery")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the child to report running commits.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "CHILD-RUNNING") {
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("child exited before running: %v", sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child never reported running")
	}

	// Let it commit under load for a moment, then kill -9 mid-flight.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Recover into a fresh store.
	rt := lcrt.New(lcrt.Options{})
	rt.Start()
	defer rt.Stop()
	store := kv.New(kv.Options{Shards: 8, Runtime: rt})
	log, rs, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Runtime: rt}, store)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer log.Close()
	t.Logf("recovery: %+v", rs)
	if rs.RecordsReplayed == 0 {
		t.Fatal("child was killed before any commit reached the log; test proves nothing")
	}

	// Invariant 1: every acked pair is present with the acked value.
	ackedData, err := os.ReadFile(filepath.Join(dir, "acked"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(ackedData), "\n")
	ackedCount := 0
	for i, line := range lines {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			// Only the final line may be torn (the ack write itself
			// raced the kill); a short line earlier is file corruption.
			if i == len(lines)-1 {
				continue
			}
			t.Fatalf("acked line %d malformed: %q", i, line)
		}
		a, b, val := "crash/"+fields[0], "crash/"+fields[1], fields[2]
		ackedCount++
		for _, k := range []string{a, b} {
			if got, ok := store.Get(k); !ok || got != val {
				t.Errorf("acked key %s: got %q,%v want %q", k, got, ok, val)
			}
		}
	}
	if ackedCount == 0 {
		t.Fatal("no acked commits before the kill; test proves nothing")
	}

	// Invariant 2: write-sets are atomic — every recovered pair has
	// both halves, with equal values.
	pairs := map[string][2]string{}
	for _, e := range store.Scan("crash/pair/", 0) {
		rest := strings.TrimPrefix(e.Key, "crash/pair/")
		id, half, ok := strings.Cut(rest, "/")
		if !ok {
			t.Fatalf("unexpected key %q", e.Key)
		}
		p := pairs[id]
		if half == "a" {
			p[0] = e.Value
		} else {
			p[1] = e.Value
		}
		pairs[id] = p
	}
	for id, p := range pairs {
		if p[0] == "" || p[1] == "" || p[0] != p[1] {
			t.Errorf("pair %s not atomic: a=%q b=%q", id, p[0], p[1])
		}
	}
	t.Logf("verified %d acked commits, %d recovered pairs", ackedCount, len(pairs))
}
