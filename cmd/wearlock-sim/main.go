// Command wearlock-sim runs end-to-end WearLock unlock sessions against a
// configurable physical scenario and prints each session's outcome,
// modem diagnostics, and delay timeline.
//
// Usage:
//
//	wearlock-sim [-n 5] [-distance 0.15] [-env office] [-activity sitting]
//	             [-band audible] [-transport bluetooth] [-offload=true]
//	             [-same-hand] [-attacker] [-other-room] [-seed 1] [-v]
//	             [-batch] [-parallel N]
//
// With -batch the -n sessions run as independent jobs on the
// batch-simulation engine (each with a fresh system seeded from the
// session index) and only the aggregate summary is printed; -parallel
// fans the jobs across N workers without changing any number in the
// summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"wearlock"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n         = flag.Int("n", 5, "number of unlock attempts")
		distance  = flag.Float64("distance", 0.15, "phone-to-watch distance in meters")
		envName   = flag.String("env", "office", "environment: quiet|office|classroom|cafe|grocery")
		actName   = flag.String("activity", "sitting", "activity: sitting|walking|running")
		bandName  = flag.String("band", "audible", "band: audible|near-ultrasound")
		transport = flag.String("transport", "bluetooth", "control channel: bluetooth|wifi")
		offload   = flag.Bool("offload", true, "offload DSP from watch to phone")
		distBound = flag.Bool("distance-bounding", false, "enable the acoustic distance-bounding extension")
		sameHand  = flag.Bool("same-hand", false, "phone held by the watch hand (NLOS)")
		attacker  = flag.Bool("attacker", false, "phone held by an attacker (different body)")
		otherRoom = flag.Bool("other-room", false, "watch in a different room")
		seed      = flag.Int64("seed", 1, "random seed")
		verbose   = flag.Bool("v", false, "print the full per-session timeline")
		batch     = flag.Bool("batch", false, "run sessions as a batch on the simulation engine and print aggregates")
		parallel  = flag.Int("parallel", 1, "batch worker count (aggregates identical for any value)")
	)
	flag.Parse()

	cfg := wearlock.DefaultConfig()
	cfg.Offload = *offload
	cfg.EnableDistanceBounding = *distBound
	switch *bandName {
	case "audible":
		cfg.Band = wearlock.BandAudible
	case "near-ultrasound":
		cfg.Band = wearlock.BandNearUltrasound
	default:
		fmt.Fprintf(os.Stderr, "wearlock-sim: unknown band %q\n", *bandName)
		return 2
	}
	switch *transport {
	case "bluetooth":
		cfg.Transport = wearlock.Bluetooth
	case "wifi":
		cfg.Transport = wearlock.WiFi
	default:
		fmt.Fprintf(os.Stderr, "wearlock-sim: unknown transport %q\n", *transport)
		return 2
	}

	sc := wearlock.DefaultScenario()
	sc.Distance = *distance
	sc.SameHand = *sameHand
	if *attacker {
		sc.SameBody = false
	}
	if *otherRoom {
		sc.SameRoom = false
	}
	switch *envName {
	case "quiet":
		sc.Env = wearlock.QuietRoom()
	case "office":
		sc.Env = wearlock.Office()
	case "classroom":
		sc.Env = wearlock.Classroom()
	case "cafe":
		sc.Env = wearlock.Cafe()
	case "grocery":
		sc.Env = wearlock.GroceryStore()
	default:
		fmt.Fprintf(os.Stderr, "wearlock-sim: unknown environment %q\n", *envName)
		return 2
	}
	switch *actName {
	case "sitting":
		sc.Activity = wearlock.Sitting
	case "walking":
		sc.Activity = wearlock.Walking
	case "running":
		sc.Activity = wearlock.Running
	default:
		fmt.Fprintf(os.Stderr, "wearlock-sim: unknown activity %q\n", *actName)
		return 2
	}

	fmt.Printf("scenario: d=%.2fm env=%s activity=%s band=%s transport=%s offload=%v same-hand=%v attacker=%v\n\n",
		sc.Distance, sc.Env.Name, sc.Activity, cfg.Band, cfg.Transport, cfg.Offload, sc.SameHand, !sc.SameBody)

	if *batch {
		res, err := wearlock.RunBatch(wearlock.BatchSpec{
			Config:   cfg,
			Scenario: sc,
			Sessions: *n,
			Seed:     *seed,
			Parallel: *parallel,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wearlock-sim: %v\n", err)
			return 1
		}
		fmt.Println(res)
		return 0
	}

	sys, err := wearlock.NewSystem(cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "wearlock-sim: %v\n", err)
		return 1
	}

	unlocked := 0
	for i := 0; i < *n; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wearlock-sim: session %d: %v\n", i+1, err)
			return 1
		}
		mode := "-"
		if res.Mode != 0 {
			mode = res.Mode.String()
		}
		ber := "-"
		if res.BER >= 0 {
			ber = fmt.Sprintf("%.3f", res.BER)
		}
		fmt.Printf("session %d: %-24s mode=%-5s BER=%-6s EbN0=%5.1fdB vol=%4.1fdB total=%7.1fms\n",
			i+1, res.Outcome, mode, ber, res.EbN0dB, res.VolumeSPL,
			float64(res.Timeline.Total().Microseconds())/1000)
		if res.Detail != "" && !res.Unlocked {
			fmt.Printf("           %s\n", res.Detail)
		}
		if *verbose {
			fmt.Println(res.Timeline)
		}
		if res.Unlocked {
			unlocked++
			sys.Keyguard().Relock()
		}
		if res.Outcome == wearlock.OutcomeLockedOut {
			fmt.Println("           keyguard locked out; falling back to manual PIN")
			sys.ManualUnlock()
			sys.Keyguard().Relock()
		}
	}
	fmt.Printf("\nunlocked %d/%d sessions\n", unlocked, *n)
	return 0
}
