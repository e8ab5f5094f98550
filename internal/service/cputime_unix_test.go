//go:build unix

package service

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the CPU time (user plus system) this test process
// has used so far. Unlike the wall clock it does not grow while other
// processes, such as other packages' test binaries, hold the cores.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
