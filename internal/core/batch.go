package core

import (
	"context"
	"fmt"
	"math/rand"

	"wearlock/internal/fault"
	"wearlock/internal/sim"
)

// BatchSpec configures a batch of independent unlock sessions executed
// on the batch-simulation engine. Each session runs against a fresh
// System (its own OTP state, keyguard, and clock) seeded from
// (Seed, session index), so the batch statistics do not depend on the
// worker count.
type BatchSpec struct {
	Config   Config
	Scenario Scenario
	// Sessions is the number of independent unlock attempts.
	Sessions int
	// Seed is the base seed every per-session RNG derives from.
	Seed int64
	// Parallel is the worker count; values <= 1 run serially.
	Parallel int
	// Ctx cancels the batch mid-run; nil means context.Background().
	Ctx context.Context
	// Chaos, when non-nil, arms each session's faults from (Seed, session
	// index) — the same derivation wearlockd uses per admission — so a
	// chaos batch replays bit-identically at any Parallel value. Sessions
	// run the resilient ladder when Config.Resilience is enabled.
	Chaos *fault.Schedule
}

// BatchResult aggregates one batch of unlock sessions.
type BatchResult struct {
	Sessions int
	Unlocked int
	// Outcomes counts sessions per terminal outcome.
	Outcomes map[Outcome]int
	// BER summarizes the decoded bit-error rate over sessions that
	// reached demodulation (BER >= 0).
	BER sim.Summary
	// EbN0dB summarizes the probe-estimated Eb/N0 over sessions that
	// measured one.
	EbN0dB sim.Summary
	// LatencyMS summarizes each session's total timeline in
	// milliseconds.
	LatencyMS sim.Summary
	// OutcomeSeq is each session's terminal outcome in session order —
	// the replay-comparison artifact: two runs of the same spec must
	// produce identical sequences regardless of Parallel.
	OutcomeSeq []Outcome
}

// UnlockRate is the fraction of sessions that ended unlocked.
func (r *BatchResult) UnlockRate() float64 {
	if r.Sessions == 0 {
		return 0
	}
	return float64(r.Unlocked) / float64(r.Sessions)
}

// String renders the batch summary.
func (r *BatchResult) String() string {
	return fmt.Sprintf("sessions=%d unlocked=%d (%.1f%%)\n  ber      %s\n  ebn0_db  %s\n  latency  %s",
		r.Sessions, r.Unlocked, 100*r.UnlockRate(), r.BER, r.EbN0dB, r.LatencyMS)
}

// RunBatch executes spec.Sessions independent unlock sessions across
// spec.Parallel workers and folds the results in session order, so the
// returned aggregates are bit-identical for every Parallel value.
func RunBatch(spec BatchSpec) (*BatchResult, error) {
	if spec.Sessions <= 0 {
		return nil, fmt.Errorf("core: batch needs at least one session, got %d", spec.Sessions)
	}
	if err := spec.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: batch config: %w", err)
	}
	if err := spec.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("core: batch scenario: %w", err)
	}
	if spec.Chaos != nil {
		if err := spec.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch chaos schedule: %w", err)
		}
	}
	ctx := spec.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	jobs := make([]sim.Job, spec.Sessions)
	for i := range jobs {
		jobs[i] = sim.Job{
			Name: fmt.Sprintf("session-%d", i),
			Seed: sim.SeedFor(spec.Seed, int64(i)),
			Run: func(ctx context.Context, rng *rand.Rand) (any, error) {
				sys, err := NewSystem(spec.Config, rng)
				if err != nil {
					return nil, err
				}
				sc := spec.Scenario
				if spec.Chaos != nil {
					sc.Faults = fault.ForSession(spec.Chaos, spec.Seed, int64(i))
				}
				return sys.Unlock(ctx, sc, nil)
			},
		}
	}
	results, err := sim.NewRunner(spec.Parallel).Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("core: batch: %w", err)
	}

	out := &BatchResult{
		Sessions: spec.Sessions,
		Outcomes: make(map[Outcome]int),
	}
	var ber, ebn0, latency sim.Stats
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("core: batch %s: %w", r.Name, r.Err)
		}
		res := r.Value.(*Result)
		out.OutcomeSeq = append(out.OutcomeSeq, res.Outcome)
		out.Outcomes[res.Outcome]++
		if res.Unlocked {
			out.Unlocked++
		}
		if res.BER >= 0 {
			ber.Add(res.BER)
		}
		if res.EbN0dB != 0 {
			ebn0.Add(res.EbN0dB)
		}
		latency.Add(float64(res.Timeline.Total().Microseconds()) / 1000)
	}
	out.BER = ber.Summarize()
	out.EbN0dB = ebn0.Summarize()
	out.LatencyMS = latency.Summarize()
	return out, nil
}
