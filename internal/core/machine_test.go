package core_test

import (
	"context"
	"math/rand"
	"testing"

	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/sim"
)

func chaosSystem(t *testing.T, seed int64, session int64) (*core.System, core.Scenario) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Resilience = core.DefaultResilience()
	sys, err := core.NewSystem(cfg, rand.New(sim.NewCountingSource(sim.SeedFor(seed, session))))
	if err != nil {
		t.Fatal(err)
	}
	sc := core.DefaultScenario()
	sc.Faults = fault.ForSession(fault.DefaultChaosSchedule(), seed, session)
	return sys, sc
}

// TestUnlockMachineStepAccounting pins the machine's timing contract over
// a chaotic batch: summing PreWait+Occupied over the discrete steps must
// reproduce the final timeline total exactly (no drift, no double
// charge), and driving the machine step by step must be bit-identical to
// the one-call resilient session — which is the property that lets the
// virtual-time engine interleave sessions without changing results.
func TestUnlockMachineStepAccounting(t *testing.T) {
	const seed, sessions = 20250808, 24
	for i := int64(0); i < sessions; i++ {
		sysM, sc := chaosSystem(t, seed, i)
		m := sysM.NewUnlockMachine(sc, nil)
		var charged int64
		var steps int
		for !m.Done() {
			st, err := m.Step(context.Background())
			if err != nil {
				t.Fatalf("session %d step %d: %v", i, steps, err)
			}
			charged += int64(st.PreWait) + int64(st.Occupied)
			steps++
			if steps > 16 {
				t.Fatalf("session %d: machine not terminating", i)
			}
		}
		final := m.Final()
		if final == nil {
			t.Fatalf("session %d: done machine has nil final result", i)
		}
		if total := int64(final.Timeline.Total()); charged != total {
			t.Errorf("session %d: steps charged %dns, timeline total %dns", i, charged, total)
		}
		if _, err := m.Step(context.Background()); err == nil {
			t.Fatalf("session %d: stepping a finished machine should error", i)
		}

		sysS, scS := chaosSystem(t, seed, i)
		serial, err := sysS.Unlock(context.Background(), scS, nil)
		if err != nil {
			t.Fatalf("session %d serial: %v", i, err)
		}
		if got, want := final.Fingerprint(), serial.Fingerprint(); got != want {
			t.Errorf("session %d: stepwise result diverged from serial:\n--- stepwise\n%s--- serial\n%s", i, got, want)
		}
		mg, mv := sysM.OTPCounters()
		sg, sv := sysS.OTPCounters()
		if mg != sg || mv != sv {
			t.Errorf("session %d: OTP counters diverged: stepwise gen=%d ver=%d, serial gen=%d ver=%d", i, mg, mv, sg, sv)
		}
	}
}

// TestRebuildSystemContinuesStream proves the export+skip replay contract
// RebuildSystem exists for: after k organic sessions, a system rebuilt
// from the export with its RNG fast-forwarded to the recorded draw count
// runs session k+1 bit-identically to the original.
func TestRebuildSystemContinuesStream(t *testing.T) {
	const seed = 20250808
	cfg := core.DefaultConfig()
	cfg.Resilience = core.DefaultResilience()
	sch := fault.DefaultChaosSchedule()

	src := sim.NewCountingSource(sim.SeedFor(seed, 7))
	orig, err := core.NewSystem(cfg, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		sc := core.DefaultScenario()
		sc.Faults = fault.ForSession(sch, seed, i)
		if _, err := orig.Unlock(context.Background(), sc, nil); err != nil {
			t.Fatalf("warmup session %d: %v", i, err)
		}
	}
	export := orig.ExportState()
	draws := src.Draws()

	src2 := sim.NewCountingSource(sim.SeedFor(seed, 7))
	if err := src2.SkipTo(draws); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.RebuildSystem(cfg, rand.New(src2), export)
	if err != nil {
		t.Fatal(err)
	}

	sc := core.DefaultScenario()
	sc.Faults = fault.ForSession(sch, seed, 3)
	ro, err := orig.Unlock(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rebuilt.Unlock(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rr.Fingerprint(), ro.Fingerprint(); got != want {
		t.Errorf("rebuilt session diverged from original:\n--- rebuilt\n%s--- original\n%s", got, want)
	}
	og, ov := orig.OTPCounters()
	rg, rv := rebuilt.OTPCounters()
	if og != rg || ov != rv {
		t.Errorf("OTP counters diverged: original gen=%d ver=%d, rebuilt gen=%d ver=%d", og, ov, rg, rv)
	}
	if src.Draws() != src2.Draws() {
		t.Errorf("draw counts diverged: original %d, rebuilt %d", src.Draws(), src2.Draws())
	}
}
