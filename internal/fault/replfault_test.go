package fault

import (
	"math/rand"
	"testing"

	"wearlock/internal/sim"
)

// forReplicationFresh is ForReplication as it was before generators were
// recycled: a fresh source per batch. It is the reference the pooled
// path must reproduce plan for plan.
func forReplicationFresh(sch *Schedule, baseSeed, batchSeq int64) ReplPlan {
	rng := rand.New(rand.NewSource(sim.SeedFor(baseSeed, replSalt, batchSeq)))
	plan := ReplPlan{Seed: rng.Int63()}
	if sch == nil {
		return plan
	}
	for _, r := range sch.Rules {
		if !r.Kind.ReplScoped() || !r.covers(batchSeq) {
			continue
		}
		if rng.Float64() >= r.Prob {
			continue
		}
		switch r.Kind {
		case KindReplDropBatch:
			plan.DropBatch = true
		case KindReplDupBatch:
			plan.DupBatch = true
		case KindReplTruncBatch:
			plan.TruncBatch = true
		}
	}
	return plan
}

// windowedReplSchedule mixes batch-windowed replication rules with a
// session rule that ForReplication must skip without a draw.
func windowedReplSchedule() *Schedule {
	return &Schedule{
		Name: "windowed-repl",
		Rules: []Rule{
			{Kind: KindReplDropBatch, Prob: 0.5, To: 40},
			{Kind: KindLinkDrop, Prob: 0.5},
			{Kind: KindReplDropBatch, Prob: 0.05, From: 40},
			{Kind: KindReplDupBatch, Prob: 0.3, From: 10, To: 90},
			{Kind: KindReplTruncBatch, Prob: 0.2, From: 25},
		},
	}
}

func TestForReplicationMatchesFreshSource(t *testing.T) {
	schedules := map[string]*Schedule{
		"nil":      nil,
		"builtin":  DefaultReplChaosSchedule(),
		"windowed": windowedReplSchedule(),
	}
	if err := schedules["windowed"].Validate(); err != nil {
		t.Fatalf("windowed schedule invalid: %v", err)
	}
	for name, sch := range schedules {
		armed, pairs := 0, 0
		for seed := int64(-3); seed < 17; seed++ {
			for batch := int64(0); batch < 120; batch++ {
				got := ForReplication(sch, seed, batch)
				want := forReplicationFresh(sch, seed, batch)
				if got != want {
					t.Fatalf("%s seed=%d batch=%d: pooled %+v, fresh %+v", name, seed, batch, got, want)
				}
				if got.Any() {
					armed++
				}
				pairs++
			}
		}
		if sch != nil && armed == 0 {
			t.Errorf("%s: no plan armed over %d pairs; the comparison never saw damage", name, pairs)
		}
	}
}

func TestForReplicationZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	sch := DefaultReplChaosSchedule()
	ForReplication(sch, 1, 0)
	batch := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		batch++
		ForReplication(sch, 1, batch)
	}); allocs != 0 {
		t.Fatalf("ForReplication allocates %.1f times per batch, want 0", allocs)
	}
}
