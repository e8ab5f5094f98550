package fault

import (
	"math/rand"
	"sync"

	"wearlock/internal/sim"
)

// replSalt separates the replication-stream fault decisions from the
// per-session (faultSalt) and restart-cycle (restartSalt) streams built
// from the same base seed.
const replSalt int64 = 0x7265706c // "repl"

// Replication-scoped fault kinds. They strike the primary→follower WAL
// tail stream, one decision per shipped batch, rolled by ForReplication;
// ForSession and ForRestart both skip them without a draw, so adding
// replication rules to a schedule never shifts the session or restart
// streams (the same draw-order-stability contract the store kinds keep).
//
//	repl-drop-batch   a live tail batch is never sent (the follower sees
//	                  a gap and the shipper must snapshot-resync)
//	repl-dup-batch    a live tail batch is sent twice (the follower must
//	                  acknowledge the duplicate idempotently)
//	repl-trunc-batch  a live tail batch loses its final record in flight
//	                  (the follower must classify it as corruption and
//	                  refuse it, never apply a partial batch)
const (
	KindReplDropBatch  Kind = "repl-drop-batch"
	KindReplDupBatch   Kind = "repl-dup-batch"
	KindReplTruncBatch Kind = "repl-trunc-batch"
)

// ReplScoped reports whether k is a replication-stream fault rather
// than a session or restart fault.
func (k Kind) ReplScoped() bool {
	switch k {
	case KindReplDropBatch, KindReplDupBatch, KindReplTruncBatch:
		return true
	}
	return false
}

// ReplPlan is the armed damage for one shipped replication batch.
type ReplPlan struct {
	// DropBatch suppresses the send entirely.
	DropBatch bool
	// DupBatch sends the batch a second time after the first ack.
	DupBatch bool
	// TruncBatch cuts the final record from the shipped copy.
	TruncBatch bool
	// Seed parameterizes any mangle that needs randomness, making one
	// batch's damage reproducible.
	Seed int64
}

// Any reports whether the plan damages anything.
func (p ReplPlan) Any() bool {
	return p.DropBatch || p.DupBatch || p.TruncBatch
}

// replRands recycles ForReplication's decision generators: a math/rand
// source is about 5 KB of state and the shipper rolls once per batch.
// Seed resets a source to exactly the stream rand.NewSource(seed)
// starts, so a recycled generator draws the plan a fresh one would.
var replRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// ForReplication rolls the schedule's replication-scoped rules for one
// shipped batch. The decision stream derives from (baseSeed, replSalt,
// batchSeq) through sim.SeedFor, so a replication chaos run's damage
// sequence is a pure function of (schedule, seed, batch sequence) —
// the ForSession/ForRestart replay contract extended to the third
// stream. Non-replication rules are skipped without a draw. A nil
// schedule arms nothing (the plan still carries a usable Seed).
func ForReplication(sch *Schedule, baseSeed, batchSeq int64) ReplPlan {
	rng := replRands.Get().(*rand.Rand)
	defer replRands.Put(rng)
	rng.Seed(sim.SeedFor(baseSeed, replSalt, batchSeq))
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

// DefaultReplChaosSchedule is the builtin replication-stream damage mix
// the failover drill arms: frequent drops and duplicates, occasional
// in-flight truncation.
func DefaultReplChaosSchedule() *Schedule {
	return &Schedule{
		Name: "builtin-repl-chaos",
		Rules: []Rule{
			{Kind: KindReplDropBatch, Prob: 0.10},
			{Kind: KindReplDupBatch, Prob: 0.10},
			{Kind: KindReplTruncBatch, Prob: 0.05},
		},
	}
}
