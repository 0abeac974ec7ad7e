// Package heldcall holds failing fixtures for the heldcall analyzer:
// blocking operations — direct, via channels, or transitively through
// a helper's facts — inside a golc critical section.
package heldcall

import (
	"fmt"
	"os"
	"time"

	"repro/internal/golc"
)

type S struct {
	mu *golc.Mutex
	ch chan int
}

func sleepHeld(s *S) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking call to time\.Sleep while s\.mu is held`
	s.mu.Unlock()
}

func sendHeld(s *S) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func recvHeld(s *S) {
	s.mu.Lock()
	<-s.ch // want `channel receive while s\.mu is held`
	s.mu.Unlock()
}

func printHeld(s *S) {
	s.mu.Lock()
	fmt.Fprintln(os.Stderr, "status") // want `blocking call to fmt\.Fprintln while s\.mu is held`
	s.mu.Unlock()
}

func selectHeld(s *S) {
	s.mu.Lock()
	select { // want `select with no default case while s\.mu is held`
	case <-s.ch:
	}
	s.mu.Unlock()
}

func rangeHeld(s *S) {
	s.mu.Lock()
	for v := range s.ch { // want `range over channel while s\.mu is held`
		_ = v
	}
	s.mu.Unlock()
}

// logStatus's facts carry Blocks, so calling it under the lock is the
// same finding as inlining the print.
func transitively(s *S) {
	s.mu.Lock()
	logStatus() // want `call to logStatus does blocking work \(fmt\.Println\) while s\.mu is held`
	s.mu.Unlock()
}

func logStatus() {
	fmt.Println("status")
}
