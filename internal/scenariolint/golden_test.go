package scenariolint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/sim"
)

// testdata/registry_golden.json was generated BEFORE the scenario
// registry existed, from the legacy service.BuiltinScenarios() catalog
// and the legacy "builtin" chaos switch: per scenario, the sha256 of
// Result.Fingerprint() for sessions 0..n-1 under seed/SeedFor derivation,
// clean and under the builtin chaos schedule. The tests below rebuild
// the same streams through the registry path — catalog.ServiceScenarios
// and catalog.ChaosSchedule — and demand byte-for-byte equality, proving
// the port moved the catalog without moving a single RNG stream.

type goldenStream struct {
	Scenario     string   `json:"scenario"`
	Chaos        string   `json:"chaos,omitempty"`
	Fingerprints []string `json:"fingerprints"`
}

type goldenFile struct {
	Seed     int64          `json:"seed"`
	Sessions int            `json:"sessions"`
	Streams  []goldenStream `json:"streams"`
}

func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "registry_golden.json"))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if len(g.Streams) == 0 || g.Sessions == 0 {
		t.Fatal("golden file is empty")
	}
	return g
}

// sessionFingerprint replays one unlock session exactly the way the
// pre-port snapshot did (and the way wearlockd admits work): RNG from
// SeedFor(seed, i), per-session faults from ForSession(sch, seed, i),
// the resilient ladder iff chaos is armed (streamSetup then enables it
// in cfg).
func sessionFingerprint(cfg core.Config, sc core.Scenario, sch *fault.Schedule, seed, i int64) (string, error) {
	rng := rand.New(rand.NewSource(sim.SeedFor(seed, i)))
	sys, err := core.NewSystem(cfg, rng)
	if err != nil {
		return "", err
	}
	if sch != nil {
		sc.Faults = fault.ForSession(sch, seed, i)
	}
	res, err := sys.Unlock(context.Background(), sc, nil)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(res.Fingerprint()))
	return hex.EncodeToString(sum[:]), nil
}

// streamSetup resolves one golden stream's scenario and chaos schedule
// through the registry.
func streamSetup(t *testing.T, st goldenStream) (core.Config, core.Scenario, *fault.Schedule) {
	t.Helper()
	scenarios := catalog.ServiceScenarios()
	sc, ok := scenarios[st.Scenario]
	if !ok {
		t.Fatalf("scenario %q from the golden file is no longer registered", st.Scenario)
	}
	cfg := core.DefaultConfig()
	var sch *fault.Schedule
	if st.Chaos != "" {
		var err error
		if sch, err = catalog.ChaosSchedule(st.Chaos); err != nil {
			t.Fatalf("chaos %q: %v", st.Chaos, err)
		}
		cfg.Resilience = core.DefaultResilience()
	}
	return cfg, sc, sch
}

// TestGoldenStabilitySerial replays every pre-port stream serially.
func TestGoldenStabilitySerial(t *testing.T) {
	g := loadGolden(t)
	for _, st := range g.Streams {
		st := st
		name := st.Scenario
		if st.Chaos != "" {
			name += "+" + st.Chaos
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel() // streams are independent; sessions within stay serial
			cfg, sc, sch := streamSetup(t, st)
			for i, want := range st.Fingerprints {
				got, err := sessionFingerprint(cfg, sc, sch, g.Seed, int64(i))
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("session %d: fingerprint %s, golden %s — the registry port moved an RNG stream", i, got, want)
				}
			}
		})
	}
}

// TestGoldenStabilityParallel recomputes every (stream, session) cell
// concurrently and demands the identical streams: the derivation is
// (seed, index)-pure, so scheduling must not matter.
func TestGoldenStabilityParallel(t *testing.T) {
	g := loadGolden(t)
	type setup struct {
		cfg core.Config
		sc  core.Scenario
		sch *fault.Schedule
	}
	// Resolve registry lookups on the test goroutine; workers only run
	// sessions.
	setups := make([]setup, len(g.Streams))
	results := make([][]string, len(g.Streams))
	for si, st := range g.Streams {
		cfg, sc, sch := streamSetup(t, st)
		setups[si] = setup{cfg, sc, sch}
		results[si] = make([]string, len(st.Fingerprints))
	}
	type cell struct{ stream, session int }
	cells := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				st := g.Streams[c.stream]
				su := setups[c.stream]
				got, err := sessionFingerprint(su.cfg, su.sc, su.sch, g.Seed, int64(c.session))
				if err != nil {
					t.Errorf("%s(chaos=%q) session %d: %v", st.Scenario, st.Chaos, c.session, err)
					continue
				}
				results[c.stream][c.session] = got
			}
		}()
	}
	for si, st := range g.Streams {
		for i := range st.Fingerprints {
			cells <- cell{si, i}
		}
	}
	close(cells)
	wg.Wait()
	for si, st := range g.Streams {
		for i, want := range st.Fingerprints {
			if got := results[si][i]; got != want {
				t.Errorf("%s(chaos=%q) session %d: parallel fingerprint %s, golden %s", st.Scenario, st.Chaos, i, got, want)
			}
		}
	}
}
