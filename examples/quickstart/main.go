// Quickstart: pair a phone and watch, press the power button, and watch
// the two-phase protocol unlock the phone over the acoustic channel.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"wearlock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// Pair a phone and watch with the paper's deployed configuration:
	// audible band, Bluetooth control channel, offloading enabled.
	rng := rand.New(rand.NewSource(7))
	sys, err := wearlock.NewSystem(wearlock.DefaultConfig(), rng)
	if err != nil {
		return err
	}

	// The nominal scenario: watch on wrist, phone in the other hand at
	// 15 cm, sitting in an office.
	scenario := wearlock.DefaultScenario()
	fmt.Printf("keyguard before: %s\n\n", sys.Keyguard().State())

	res, err := sys.Unlock(context.Background(), scenario, nil)
	if err != nil {
		return err
	}
	fmt.Printf("outcome:    %s\n", res.Outcome)
	fmt.Printf("mode:       %s at Eb/N0 %.1f dB (volume %.1f dB SPL)\n", res.Mode, res.EbN0dB, res.VolumeSPL)
	fmt.Printf("channel BER %.3f, motion score %.3f, noise similarity %.2f\n\n", res.BER, res.MotionScore, res.NoiseSimilarity)
	fmt.Println("session timeline:")
	fmt.Println(res.Timeline)
	fmt.Printf("keyguard after: %s\n", sys.Keyguard().State())

	// An attacker picking the phone up two meters away gets nowhere.
	attacker := scenario
	attacker.SameBody = false
	attacker.Distance = 2.0
	res, err = sys.Unlock(context.Background(), attacker, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nattacker at 2 m: %s (%s)\n", res.Outcome, res.Detail)
	return nil
}
