package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"wearlock/internal/core"
	"wearlock/internal/scenario/catalog"
)

// serviceScenarioNames lists catalog.ServiceScenarios in name order.
func serviceScenarioNames() (map[string]core.Scenario, []string) {
	scenarios := catalog.ServiceScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return scenarios, names
}

// UnlockInto into one reused Result is Unlock: on twin systems, every
// session of every service scenario, with the resilience ladder off and
// on, fingerprints bit-identically, so nothing a reused Result keeps from
// its previous session leaks into the next. The full run is 200 sessions
// per scenario (about 4 CPU-minutes); -short runs 20, and -race, which
// has no concurrency to check here, a smoke of 3.
func TestUnlockIntoMatchesUnlock(t *testing.T) {
	sessions := 200
	switch {
	case raceEnabled:
		sessions = 3
	case testing.Short():
		sessions = 20
	}
	scenarios, names := serviceScenarioNames()
	for _, ladder := range []bool{false, true} {
		cfg := core.DefaultConfig()
		if ladder {
			cfg.Resilience = core.DefaultResilience()
		}
		for _, name := range names {
			sc := scenarios[name]
			ladder, name := ladder, name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				fresh, err := core.NewSystem(cfg, rand.New(rand.NewSource(9)))
				if err != nil {
					t.Fatal(err)
				}
				reused, err := core.NewSystem(cfg, rand.New(rand.NewSource(9)))
				if err != nil {
					t.Fatal(err)
				}
				var into core.Result
				for i := 0; i < sessions; i++ {
					want, err := fresh.Unlock(context.Background(), sc, nil)
					if err != nil {
						t.Fatalf("ladder %t session %d: Unlock: %v", ladder, i, err)
					}
					if err := reused.UnlockInto(context.Background(), sc, nil, &into); err != nil {
						t.Fatalf("ladder %t session %d: UnlockInto: %v", ladder, i, err)
					}
					if got, wantFP := into.Fingerprint(), want.Fingerprint(); got != wantFP {
						t.Fatalf("ladder %t session %d:\nUnlockInto\n%s\nUnlock\n%s", ladder, i, got, wantFP)
					}
					if want.Outcome == core.OutcomeLockedOut {
						fresh.ManualUnlock()
						reused.ManualUnlock()
					}
				}
			})
		}
	}
}

// A warm UnlockInto allocates only the abort's Detail text: the timeline,
// energy ledger, channel list, links, frames, recordings and codec
// buffers all live in the reused Result or the attempt's workspace. Each
// session's allocations are counted alone, and the fewest a scenario's
// sessions of one outcome made is held to that outcome's ceiling: a
// session that takes a path for the first time (a new mode, a longer
// recording) may still grow a pooled buffer once, but every session of
// that outcome paying for something is a per-session allocation. The
// ceilings are the measured counts: none for a session that unlocks (or
// that the locked-out keyguard refuses outright), and for an abort the
// fmt.Sprintf text with its boxed float operands plus, where the Detail
// is an error's text, the error.
func TestWarmUnlockIntoAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ceilings := map[core.Outcome]uint64{
		core.OutcomeUnlocked:        0,
		core.OutcomeLockedOut:       0,
		core.OutcomeAbortedLinkDown: 2,
		core.OutcomeAbortedMotion:   3,
		core.OutcomeTokenMismatch:   3,
		core.OutcomeAbortedNoMode:   4,
		core.OutcomeAbortedNoSignal: 7,
	}
	// Background goroutines would charge their allocations to the
	// session being counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scenarios, names := serviceScenarioNames()
	for _, name := range names {
		sc := scenarios[name]
		sys, err := core.NewSystem(core.DefaultConfig(), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		var res core.Result
		unlock := func() {
			if err := sys.UnlockInto(context.Background(), sc, nil, &res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 5; i++ {
			unlock()
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
		fewest := make(map[core.Outcome]uint64)
		var before, after runtime.MemStats
		for i := 0; i < 25; i++ {
			runtime.ReadMemStats(&before)
			unlock()
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			if least, ok := fewest[res.Outcome]; !ok || n < least {
				fewest[res.Outcome] = n
			}
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
		for outcome, n := range fewest {
			ceiling, ok := ceilings[outcome]
			if !ok {
				t.Errorf("%s: outcome %s has no allocation ceiling (%d allocations)", name, outcome, n)
			} else if n > ceiling {
				t.Errorf("%s: every warm UnlockInto ending %s allocated at least %d objects, ceiling %d", name, outcome, n, ceiling)
			}
		}
		t.Logf("%s: fewest allocations per warm UnlockInto by outcome: %v", name, fewest)
	}
}
