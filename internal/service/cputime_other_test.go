//go:build !unix

package service

import (
	"runtime"
	"testing"
	"time"
)

var processStart = time.Now()

// processCPU stands in for the process CPU time where getrusage is
// missing: the wall time since the process started, times GOMAXPROCS,
// so a CPU-time bound still reads as a wall-clock bound there.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	return time.Since(processStart) * time.Duration(runtime.GOMAXPROCS(0))
}
