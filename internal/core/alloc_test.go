package core_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"wearlock/internal/core"
	"wearlock/internal/scenario/catalog"
)

// A warm session recomputes no constant and allocates no DSP scratch:
// what a steady-state Unlock still allocates is what its Result carries
// out (timeline, energy ledger, detail text, selected channels) plus the
// per-session radio and acoustic links. The ceiling holds for every
// service scenario, whichever phase it ends in.
func TestWarmUnlockAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 40 // allocations per warm Unlock
	scenarios := catalog.ServiceScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := scenarios[name]
		sys, err := core.NewSystem(core.DefaultConfig(), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		unlock := func() {
			res, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
		for i := 0; i < 5; i++ {
			unlock()
		}
		if allocs := testing.AllocsPerRun(20, unlock); allocs > ceiling {
			t.Errorf("%s: warm Unlock allocated %.1f objects, ceiling %d", name, allocs, ceiling)
		} else {
			t.Logf("%s: %.1f allocations per warm Unlock", name, allocs)
		}
	}
}
