package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
)

const buildDir = ".bench_build" // ignored by git; also where the driver keeps build outputs

// reaper owns everything an invocation leaves outside its own memory —
// child processes and the scratch directory with its WAL dirs — and
// removes it on every way out: normal return, a failed run,
// SIGINT/SIGTERM.
type reaper struct {
	mu      sync.Mutex
	procs   map[*exec.Cmd]struct{}
	scratch string
}

// newReaper creates this process's scratch directory inside the
// checkout and arms the signal handler.
func newReaper(root string) (*reaper, error) {
	rp := &reaper{
		procs:   make(map[*exec.Cmd]struct{}),
		scratch: filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(rp.scratch, 0o755); err != nil {
		return nil, err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		rp.cleanup()
		os.Exit(130)
	}()
	return rp, nil
}

// spawn starts cmd as a child that dies with this process, and
// registers it for reaping.
func (rp *reaper) spawn(cmd *exec.Cmd) error {
	// Should this process be killed outright, the kernel takes the child
	// down too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	rp.procs[cmd] = struct{}{}
	return nil
}

// kill ends cmd with SIGKILL — for lcserve, the crash the durability
// check wants — and waits until it has gone.
func (rp *reaper) kill(cmd *exec.Cmd) {
	rp.mu.Lock()
	_, live := rp.procs[cmd]
	delete(rp.procs, cmd)
	rp.mu.Unlock()
	if live {
		end(cmd)
	}
}

// end kills cmd and waits for it.
func end(cmd *exec.Cmd) {
	cmd.Process.Kill() //nolint:errcheck // already exited is fine
	cmd.Wait()         //nolint:errcheck // killed: the exit status is the signal
}

// wait waits for cmd to end by itself and stops tracking it.
func (rp *reaper) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	rp.mu.Lock()
	delete(rp.procs, cmd)
	rp.mu.Unlock()
	return err
}

// cleanup kills every live child and removes the scratch directory.
func (rp *reaper) cleanup() {
	rp.mu.Lock()
	procs := rp.procs
	rp.procs = make(map[*exec.Cmd]struct{})
	rp.mu.Unlock()
	for cmd := range procs {
		end(cmd)
	}
	os.RemoveAll(rp.scratch)
}
