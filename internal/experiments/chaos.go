package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/sim"
)

// ChaosPoint is one intensity step of the chaos sweep: the builtin fault
// schedule with every rule's arming probability scaled by Intensity, run
// over an independent session population.
type ChaosPoint struct {
	Intensity float64 `json:"intensity"`
	Sessions  int     `json:"sessions"`
	// Unlocked counts every session that ended with the phone unlocked,
	// including degraded-mode and tone-ACK rescues.
	Unlocked int `json:"unlocked"`
	// Degraded counts unlocks that needed the robust-mode or tone-ACK
	// rung (a subset of Unlocked).
	Degraded int `json:"degraded"`
	// FallbackPIN counts sessions whose resilience ladder exhausted.
	FallbackPIN  int     `json:"fallback_pin"`
	SuccessRate  float64 `json:"success_rate"`
	MeanAttempts float64 `json:"mean_attempts"`
	DelayP50MS   float64 `json:"delay_p50_ms"`
	DelayP99MS   float64 `json:"delay_p99_ms"`
}

// ChaosResult is the full success-vs-fault-intensity curve, the data
// behind BENCH_chaos.json.
type ChaosResult struct {
	Date             string       `json:"date"`
	GOMAXPROCS       int          `json:"gomaxprocs"`
	Schedule         string       `json:"schedule"`
	Seed             int64        `json:"seed"`
	SessionsPerPoint int          `json:"sessions_per_point"`
	Points           []ChaosPoint `json:"points"`
	Note             string       `json:"note"`
}

// chaosIntensities is the sweep grid: 0 is the fault-free control, 1 the
// full builtin schedule.
func chaosIntensities() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1} }

// Chaos runs the fault-injection sweep at the given scale and seed.
func Chaos(scale Scale, seed int64) (*ChaosResult, error) {
	return ChaosOpts(serialOpts(scale, seed))
}

// ChaosOpts sweeps the builtin chaos schedule over fault intensity: each
// grid point scales every rule's arming probability, runs an independent
// population of resilient sessions, and records the unlock-success rate
// and latency tail. Each intensity is one batch-engine point, so the
// curve is bit-identical for every Options.Parallel value. The resilience
// ladder is the subject under test: success should fall and the latency
// tail grow monotonically with intensity, and every session must end in a
// defined terminal outcome (unlocked, degraded-unlocked, a filtered
// abort, or the PIN fallback).
func ChaosOpts(opts Options) (*ChaosResult, error) {
	opts = opts.normalized()
	sessions := opts.Scale.trials(16, 64)
	grid := chaosIntensities()
	base := fault.DefaultChaosSchedule()

	cfg := core.DefaultConfig()
	cfg.Resilience = core.DefaultResilience()

	points, err := runPoints(opts, "chaos", len(grid), func(i int, rng *rand.Rand) (ChaosPoint, error) {
		intensity := grid[i]
		sch, err := base.Scaled(intensity)
		if err != nil {
			return ChaosPoint{}, err
		}
		pt := ChaosPoint{Intensity: intensity, Sessions: sessions}
		var attempts, delays sim.Stats
		for sess := 0; sess < sessions; sess++ {
			// Faults derive from (seed, intensity point, session) — the
			// same SeedFor contract the daemon uses — so a point's fault
			// pattern is independent of its siblings and reproducible.
			sys, err := core.NewSystem(cfg, rng)
			if err != nil {
				return ChaosPoint{}, err
			}
			sc := core.DefaultScenario()
			sc.Faults = fault.ForSession(sch, sim.SeedFor(opts.Seed, int64(i)), int64(sess))
			res, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				return ChaosPoint{}, fmt.Errorf("chaos intensity %.2f session %d: %w", intensity, sess, err)
			}
			if res.Outcome == 0 {
				return ChaosPoint{}, fmt.Errorf("chaos intensity %.2f session %d: undefined outcome", intensity, sess)
			}
			if res.Unlocked {
				pt.Unlocked++
				if res.Degradation >= core.DegradeRobustMode {
					pt.Degraded++
				}
			}
			if res.Outcome == core.OutcomeFallbackPIN {
				pt.FallbackPIN++
			}
			attempts.Add(float64(res.Attempts))
			delays.Add(float64(res.Timeline.Total().Microseconds()) / 1000)
		}
		pt.SuccessRate = float64(pt.Unlocked) / float64(sessions)
		pt.MeanAttempts = attempts.Mean()
		pt.DelayP50MS = delays.Percentile(50)
		pt.DelayP99MS = delays.Percentile(99)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{
		Date:             time.Now().UTC().Format("2006-01-02"),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Schedule:         base.Name,
		Seed:             opts.Seed,
		SessionsPerPoint: sessions,
		Points:           points,
		Note: "Resilient unlock sessions under the builtin chaos schedule with arming probabilities scaled by intensity. " +
			"success_rate counts every unlocked terminal state (incl. degraded rungs); delay percentiles are the simulated protocol timeline. " +
			"Deterministic: identical for any -parallel value at a fixed seed.",
	}, nil
}

// WriteJSON records the sweep, the artifact committed as BENCH_chaos.json.
func (r *ChaosResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table renders the sweep.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Chaos — unlock resilience vs fault intensity (%s, %d sessions/point)", r.Schedule, r.SessionsPerPoint),
		Columns: []string{"intensity", "success rate", "degraded unlocks", "PIN fallbacks", "mean attempts", "delay p50 ms", "delay p99 ms"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", p.Intensity),
			fmt.Sprintf("%.3f", p.SuccessRate),
			fmt.Sprintf("%d", p.Degraded),
			fmt.Sprintf("%d", p.FallbackPIN),
			fmt.Sprintf("%.2f", p.MeanAttempts),
			fmt.Sprintf("%.1f", p.DelayP50MS),
			fmt.Sprintf("%.1f", p.DelayP99MS),
		})
	}
	t.Notes = append(t.Notes,
		"intensity scales every fault rule's arming probability; 0 is the fault-free control",
		"expected: success rate falls and the delay tail grows monotonically with intensity")
	return t
}
