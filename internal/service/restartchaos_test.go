package service

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/invariant"
	"wearlock/internal/store"
)

// applyStorePlan maps one restart cycle's armed store faults onto the
// store package's deterministic mangles (this test file is the
// composition point — fault does not import store). It returns which
// mangles actually bit (a mangle is a no-op on e.g. an empty WAL).
func applyStorePlan(t *testing.T, dir string, plan fault.StorePlan) (applied []string) {
	t.Helper()
	if plan.DropLastRecord {
		if ok, err := store.MangleDropLastRecord(dir); err != nil {
			t.Fatalf("MangleDropLastRecord: %v", err)
		} else if ok {
			applied = append(applied, "drop-last")
		}
	}
	if plan.TornTail {
		if ok, err := store.MangleTornTail(dir, plan.Seed); err != nil {
			t.Fatalf("MangleTornTail: %v", err)
		} else if ok {
			applied = append(applied, "torn-tail")
		}
	}
	if plan.FlipBit {
		if ok, err := store.MangleFlipBit(dir, plan.Seed); err != nil {
			t.Fatalf("MangleFlipBit: %v", err)
		} else if ok {
			applied = append(applied, "bit-flip")
		}
	}
	if plan.SnapshotOnly {
		if ok, err := store.MangleSnapshotOnly(dir); err != nil {
			t.Fatalf("MangleSnapshotOnly: %v", err)
		} else if ok {
			applied = append(applied, "snapshot-only")
		}
	}
	if plan.DropSegment {
		if ok, err := store.MangleDropSegment(dir, plan.Seed); err != nil {
			t.Fatalf("MangleDropSegment: %v", err)
		} else if ok {
			applied = append(applied, "drop-segment")
		}
	}
	return applied
}

// TestRestartChaos50Cycles is the acceptance harness: 50 deterministic
// kill-restart cycles over one state directory, each cycle killing the
// daemon with sessions in flight and then striking the directory with
// the store fault schedule. Invariants checked every cycle:
//
//   - zero HOTP counter regressions: a device recovered under its old
//     pairing key never comes back below the previous cycle's recovered
//     counters (tail loss can only eat commits newer than that floor);
//   - zero replay windows: any device whose counters cannot be proven
//     current comes back with a fresh pairing key (repair), never with
//     resumed counters;
//   - zero permanent desyncs: after every recovery, every device still
//     completes an unlock session.
func TestRestartChaos50Cycles(t *testing.T) {
	if testing.Short() {
		t.Skip("50 restart cycles with real sessions")
	}
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Devices = 3
	// A tiny segment threshold forces rolls (and checkpoint footers)
	// every few commits, so the cycles also land kills and mangles at
	// segment boundaries — the crash windows segmentation introduced.
	cfg.WALSegmentBytes = 2048
	// The resilience ladder absorbs ordinary channel noise (a noisy
	// realization can corrupt a token in the air); a genuine desync still
	// fails, because no amount of retrying verifies under a wrong key or
	// an unhealable counter state.
	cfg.Core.Resilience = core.DefaultResilience()
	sch := fault.DefaultStoreChaosSchedule()
	// Appending the segment-drop rule keeps the builtin rules' per-cycle
	// decisions byte-stable (ForRestart draws in rule order) while adding
	// the vanished-segment fault only a segmented log can suffer.
	sch.Rules = append(sch.Rules, fault.Rule{Kind: fault.KindStoreDropSegment, Prob: 0.15})

	// floor is each device's last recovered durable state: the regression
	// baseline that must survive any tail damage.
	var floor store.State
	var totalRepairs int
	damageByKind := make(map[string]int)

	const cycles = 50
	for cycle := 0; cycle < cycles; cycle++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("cycle %d: New: %v", cycle, err)
		}
		if err := s.WaitReady(context.Background()); err != nil {
			t.Fatalf("cycle %d: recovery failed: %v", cycle, err)
		}
		rec, _ := s.Ready()
		totalRepairs += len(rec.Repaired)

		st, ok := s.StoreState()
		if !ok {
			t.Fatalf("cycle %d: no store state", cycle)
		}
		if err := invariant.Check(invariant.Event{Before: floor, After: st, Repaired: rec.Repaired}).Err(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}

		// No permanent desyncs: every device still unlocks.
		for dev := 0; dev < cfg.Devices; dev++ {
			sess := runSessionOn(t, s, dev)
			if sess.Err() != nil {
				t.Fatalf("cycle %d: device %d session failed after recovery: %v", cycle, dev, sess.Err())
			}
			res, ok := sess.Answer()
			if !ok || !res.Unlocked {
				t.Fatalf("cycle %d: device %d desynced — post-recovery session did not unlock (%+v)",
					cycle, dev, res)
			}
		}

		// The new floor is the durable state after this cycle's accepted
		// sessions; everything past it may legitimately be lost to the
		// tail faults below.
		floor, _ = s.StoreState()

		// Kill with sessions in flight: their commits race the closing
		// store and must fail cleanly, never corrupt.
		var inflight []*Session
		for dev := 0; dev < cfg.Devices; dev++ {
			sess, err := s.Submit(Request{Device: dev})
			if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
				t.Fatalf("cycle %d: in-flight Submit: %v", cycle, err)
			}
			if err == nil {
				inflight = append(inflight, sess)
			}
		}
		s.Kill()
		for _, sess := range inflight {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := sess.Wait(ctx); err != nil {
				t.Fatalf("cycle %d: killed in-flight session never terminated: %v", cycle, err)
			}
			cancel()
		}
		plan := fault.ForRestart(sch, cfg.Seed, int64(cycle))
		for _, kind := range applyStorePlan(t, dir, plan) {
			damageByKind[kind]++
		}

		// Re-derive the floor from the bytes actually on disk: in-flight
		// commits that won the race against Kill are durable, ones that
		// lost are gone, and the tail faults above may have eaten recent
		// commits. The probe uses Inspect, not Open — an Open would create
		// an empty WAL and thereby consume the snapshot-only fault's
		// rollback evidence before the real recovery sees it. Devices the
		// damage distrusts keep their old floor entry: the next recovery
		// must re-pair them (key change), which the invariant accepts.
		hst, hinfo, err := store.Inspect(dir)
		if err != nil {
			t.Fatalf("cycle %d: post-damage Inspect: %v", cycle, err)
		}
		distrust := make(map[int]bool)
		for _, id := range hinfo.Distrusted {
			distrust[id] = true
		}
		for id, d := range hst.Devices {
			if !distrust[id] && !hinfo.WALMissing {
				floor.Devices[id] = d
			}
		}
		if hinfo.Damaged() {
			// A device whose records were all destroyed is absent from the
			// inspected state; it must be re-paired next cycle, so its
			// same-key floor no longer binds.
			for id := range floor.Devices {
				if _, present := hst.Devices[id]; !present {
					delete(floor.Devices, id)
				}
			}
		}
	}

	totalDamage := 0
	for _, n := range damageByKind {
		totalDamage += n
	}
	if totalDamage == 0 {
		t.Fatal("50 cycles of the builtin store schedule applied no damage — harness is not exercising recovery")
	}
	if damageByKind["drop-segment"] == 0 {
		t.Fatal("50 cycles never dropped a sealed segment — the segmented-log fault went unexercised")
	}
	t.Logf("restart chaos: %d cycles, %d mangles applied (%v), %d device repairs, zero regressions/desyncs",
		cycles, totalDamage, damageByKind, totalRepairs)
}

// TestCrossRestartGoldenReplay extends the chaos replay contract across
// a daemon restart: a run that gracefully restarts mid-stream must
// produce the bit-identical outcome sequence (including chaos admission
// rejections) and the identical final durable counters as an unbroken
// run, because the admission sequence, device RNG positions, and OTP
// counters all persist.
func TestCrossRestartGoldenReplay(t *testing.T) {
	const submissions = 16
	run := func(dir string, restartAfter int) (outcomes []string, final store.State) {
		t.Helper()
		cfg := chaosConfig()
		cfg.StateDir = dir
		cfg.NoFsync = true
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.WaitReady(context.Background()); err != nil {
			t.Fatalf("WaitReady: %v", err)
		}
		for i := 0; i < submissions; i++ {
			if i == restartAfter {
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatalf("mid-run Shutdown: %v", err)
				}
				s, err = New(cfg)
				if err != nil {
					t.Fatalf("restart New: %v", err)
				}
				if err := s.WaitReady(context.Background()); err != nil {
					t.Fatalf("restart WaitReady: %v", err)
				}
				rec, _ := s.Ready()
				if rec.Store.Corruptions != 0 || len(rec.Repaired) != 0 {
					t.Fatalf("graceful mid-run restart reported damage: %+v", rec)
				}
			}
			sess, err := s.Submit(Request{Device: i % 2})
			if errors.Is(err, ErrQueueFull) {
				outcomes = append(outcomes, "rejected")
				continue
			}
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err = sess.Wait(ctx)
			cancel()
			if err != nil {
				t.Fatalf("session %d never terminated: %v", i, err)
			}
			outcomes = append(outcomes, sess.Snapshot().Outcome)
		}
		final, _ = s.StoreState()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("final Shutdown: %v", err)
		}
		return outcomes, final
	}

	unbroken, finalA := run(t.TempDir(), -1)
	restarted, finalB := run(t.TempDir(), submissions/2)

	for i := range unbroken {
		if unbroken[i] != restarted[i] {
			t.Fatalf("submission %d: unbroken %q vs restarted %q — restart broke the replay contract",
				i, unbroken[i], restarted[i])
		}
	}
	for id, a := range finalA.Devices {
		b, ok := finalB.Devices[id]
		if !ok {
			t.Fatalf("device %d missing from restarted run's durable state", id)
		}
		if !bytes.Equal(a.Key, b.Key) {
			t.Errorf("device %d pairing keys diverged across restart", id)
		}
		if a.GenCounter != b.GenCounter || a.VerCounter != b.VerCounter {
			t.Errorf("device %d final counters diverged: unbroken gen=%d ver=%d, restarted gen=%d ver=%d",
				id, a.GenCounter, a.VerCounter, b.GenCounter, b.VerCounter)
		}
		if a.RngDraws != b.RngDraws {
			t.Errorf("device %d RNG draw positions diverged: %d vs %d", id, a.RngDraws, b.RngDraws)
		}
	}
}
