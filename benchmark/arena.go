package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap maps n zeroed Ts outside the Go heap, and returns them with
// the function that unmaps them. The harness keeps what it records —
// millions of latency samples, the span rings — here: on the heap they
// would raise the collector's heap target as they pile up, the process
// under test would collect less and less often, and throughput would
// drift upward through every window. T must not contain pointers.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := max(1, n) * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	free := func() { syscall.Munmap(mem) } //nolint:errcheck // unmapping a mapping this function made
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), free, nil
}
