// Field test: run unlock sessions across the four locations of Table I —
// office, classroom, cafe, grocery store — in both hand positions, and
// print the per-cell BER and selected modulation the way the paper's
// field test reports them.
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
		fmt.Fprintf(os.Stderr, "fieldtest: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const attempts = 6
	envs := []*wearlock.Environment{
		wearlock.Office(), wearlock.Classroom(), wearlock.Cafe(), wearlock.GroceryStore(),
	}
	fmt.Printf("%-14s %-10s %-9s %-8s %-7s\n", "location", "hand", "mode", "BER", "unlocks")
	for _, sameHand := range []bool{false, true} {
		for i, env := range envs {
			cfg := wearlock.DefaultConfig()
			sys, err := wearlock.NewSystem(cfg, rand.New(rand.NewSource(int64(i)+100)))
			if err != nil {
				return err
			}
			sc := wearlock.DefaultScenario()
			sc.Env = env
			sc.SameHand = sameHand
			sc.Distance = 0.25

			var berSum float64
			berN, unlocks := 0, 0
			modes := map[wearlock.Modulation]int{}
			for a := 0; a < attempts; a++ {
				res, err := sys.Unlock(context.Background(), sc, nil)
				if err != nil {
					return err
				}
				if res.Outcome == wearlock.OutcomeLockedOut {
					sys.ManualUnlock()
				}
				if res.Unlocked {
					unlocks++
					sys.Keyguard().Relock()
				}
				if res.BER >= 0 {
					berSum += res.BER
					berN++
				}
				if res.Mode != 0 {
					modes[res.Mode]++
				}
			}
			var top wearlock.Modulation
			best := 0
			for m, c := range modes {
				if c > best {
					top, best = m, c
				}
			}
			hand := "diff-hand"
			if sameHand {
				hand = "same-hand"
			}
			topName, ber := "-", "-"
			if top != 0 {
				topName = top.String()
			}
			if berN > 0 {
				ber = fmt.Sprintf("%.4f", berSum/float64(berN))
			}
			fmt.Printf("%-14s %-10s %-9s %-8s %d/%d\n", env.Name, hand, topName, ber, unlocks, attempts)
		}
	}
	fmt.Println("\npaper (Table I): diff-hand BER 0.01-0.05, same-hand 0.05-0.21; average ~0.08")
	return nil
}
