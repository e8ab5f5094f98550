// Attacks: run the threat model of Sec. IV against a WearLock pairing and
// show which defense stops each adversary — lockout for brute force, the
// acoustic range boundary for co-located grabs, OTP freshness and the
// timing window for record-and-replay, and both for live relays.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"wearlock"
	"wearlock/internal/attack"
	"wearlock/internal/core"
	"wearlock/internal/otp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "attacks: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(99))

	fmt.Println("-- attack 1: brute force against the OTP verifier --")
	key, err := wearlock.NewOTPKey()
	if err != nil {
		return err
	}
	ver, err := wearlock.NewOTPVerifier(key, 0)
	if err != nil {
		return err
	}
	accepted, attempted, err := attack.BruteForce(ver, 1_000_000, rng)
	if err != nil {
		return err
	}
	fmt.Printf("guessed %d tokens; verifier allowed %d attempts before locking out (budget %d)\n\n",
		accepted, attempted, otp.DefaultMaxFailures)

	fmt.Println("-- attack 2: co-located grab at increasing distance --")
	cfg := wearlock.DefaultConfig()
	sys, err := wearlock.NewSystem(cfg, rng)
	if err != nil {
		return err
	}
	for _, d := range []float64{0.3, 1.0, 2.0, 4.0} {
		results, err := attack.CoLocatedAttempt(sys, d, 3)
		if err != nil {
			return err
		}
		wins := 0
		last := results[len(results)-1]
		for _, r := range results {
			if r.Unlocked {
				wins++
			}
			if r.Outcome == wearlock.OutcomeLockedOut {
				sys.ManualUnlock()
				sys.Keyguard().Relock()
			}
		}
		fmt.Printf("distance %.1f m: %d/%d unlocked (last outcome: %s)\n", d, wins, len(results), last.Outcome)
	}

	fmt.Println("\n-- attack 3: record-and-replay --")
	sys2, err := wearlock.NewSystem(cfg, rng)
	if err != nil {
		return err
	}
	sc := wearlock.DefaultScenario()
	link, err := sc.AcousticLink(cfg.Band, 44100, rng)
	if err != nil {
		return err
	}
	recorder := &attack.RecordingPath{Inner: wearlock.NewLinkPath(link)}
	var victim *core.Result
	for i := 0; i < 5; i++ {
		victim, err = sys2.Unlock(context.Background(), sc, recorder)
		if err != nil {
			return err
		}
		if victim.Unlocked {
			break
		}
		if victim.Outcome == wearlock.OutcomeLockedOut {
			sys2.ManualUnlock()
		}
	}
	fmt.Printf("victim session: %s; attacker captured %d frames\n", victim.Outcome, len(recorder.Recordings))
	sys2.Keyguard().Relock()

	stale := recorder.Recordings[len(recorder.Recordings)-1]
	replay := &attack.ReplayPath{Captured: stale, ProcessingDelay: 350 * time.Millisecond}
	res, err := sys2.Unlock(context.Background(), sc, replay)
	if err != nil {
		return err
	}
	fmt.Printf("realistic replay rig (+350 ms): %s (%s)\n", res.Outcome, res.Detail)

	link3, err := sc.AcousticLink(cfg.Band, 44100, rng)
	if err != nil {
		return err
	}
	ideal := &attack.ReplayPath{Captured: stale, Inner: wearlock.NewLinkPath(link3)}
	res, err = sys2.Unlock(context.Background(), sc, ideal)
	if err != nil {
		return err
	}
	fmt.Printf("ideal zero-latency replay:      %s (%s)\n", res.Outcome, res.Detail)

	fmt.Println("\n-- attack 4: live relay --")
	link2, err := sc.AcousticLink(cfg.Band, 44100, rng)
	if err != nil {
		return err
	}
	relay, err := attack.NewRelayPath(wearlock.NewLinkPath(link2), 300*time.Millisecond, 40e-6, rng)
	if err != nil {
		return err
	}
	res, err = sys2.Unlock(context.Background(), sc, relay)
	if err != nil {
		return err
	}
	fmt.Printf("store-and-forward relay (+300 ms): %s (%s)\n", res.Outcome, res.Detail)
	return nil
}
