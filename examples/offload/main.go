// Offload: compare watch-local DSP against offloading to the phone over
// Bluetooth and WiFi — the trade-off of Figs. 6 and 12. The cost model
// charges every correlation and FFT to the device that ran it, so the
// timeline shows exactly where offloading wins and what the radio costs.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"wearlock"
	"wearlock/internal/device"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "offload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	type variant struct {
		name      string
		transport wearlock.Transport
		phone     device.Profile
		offload   bool
	}
	variants := []variant{
		{"Config1: offload via WiFi to Nexus 6", wearlock.WiFi, device.Nexus6(), true},
		{"Config2: offload via Bluetooth to Galaxy Nexus", wearlock.Bluetooth, device.GalaxyNexus(), true},
		{"Config3: local processing on Moto 360", wearlock.Bluetooth, device.Nexus6(), false},
	}
	const rounds = 5

	fmt.Printf("%-48s %10s %12s %12s\n", "configuration", "total", "watch J", "phone J")
	for i, v := range variants {
		cfg := wearlock.DefaultConfig()
		cfg.Transport = v.transport
		cfg.Phone = v.phone
		cfg.Offload = v.offload
		cfg.EnableMotionFilter = false
		cfg.EnableNoiseFilter = false
		sys, err := wearlock.NewSystem(cfg, rand.New(rand.NewSource(int64(i)+50)))
		if err != nil {
			return err
		}
		sc := wearlock.DefaultScenario()
		var total time.Duration
		var watchJ, phoneJ float64
		n := 0
		for r := 0; r < rounds; r++ {
			res, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				return err
			}
			if res.Outcome == wearlock.OutcomeLockedOut {
				sys.ManualUnlock()
				continue
			}
			total += res.Timeline.Total()
			watchJ += res.Energy.Total(cfg.Watch.Name)
			phoneJ += res.Energy.Total(cfg.Phone.Name)
			n++
			sys.Keyguard().Relock()
		}
		if n == 0 {
			fmt.Printf("%-48s no completed rounds\n", v.name)
			continue
		}
		fmt.Printf("%-48s %8.0fms %11.3fJ %11.3fJ\n",
			v.name, float64((total/time.Duration(n)).Microseconds())/1000, watchJ/float64(n), phoneJ/float64(n))
	}

	fmt.Println("\nper-phase compute on each device (one probe + one token round):")
	fmt.Println("run `go run ./cmd/experiments -run fig10` for the full Fig. 10 breakdown")
	return nil
}
