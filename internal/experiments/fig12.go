package experiments

import (
	"context"
	"fmt"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/device"
	"wearlock/internal/wireless"
)

// Fig12Row is one configuration (or PIN baseline) of the total-delay
// comparison.
type Fig12Row struct {
	Name        string
	Median      time.Duration
	Mean        time.Duration
	SpeedupPIN4 float64 // fractional speedup vs the 4-digit PIN baseline
	SpeedupPIN6 float64
	Trials      int
}

// Fig12Result holds the end-to-end unlock-delay comparison.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12 reproduces Fig. 12: total unlock delay of the three WearLock
// configurations against manual 4/6-digit PIN entry.
//
//	Config1: watch offloads over WiFi to a Nexus 6 (fastest)
//	Config2: watch offloads over Bluetooth to a Galaxy Nexus (slowest offload)
//	Config3: local processing on the Moto 360
//
// The paper's headline: even Config2 beats manual PIN entry by at least
// 17.7%, and Config1 by at least 58.6%.
func Fig12(scale Scale, seed int64) (*Fig12Result, error) {
	trials := scale.trials(4, 20)
	res := &Fig12Result{}

	configs := []struct {
		name      string
		transport wireless.Transport
		phone     device.Profile
		offload   bool
	}{
		{"Config1 (WiFi -> Nexus 6)", wireless.WiFi, device.Nexus6(), true},
		{"Config2 (BT -> Galaxy Nexus)", wireless.Bluetooth, device.GalaxyNexus(), true},
		{"Config3 (local Moto 360)", wireless.Bluetooth, device.Nexus6(), false},
	}

	var totals [][]float64
	for i, c := range configs {
		cfg := core.DefaultConfig()
		cfg.OTPKey = _otpKey
		cfg.Transport = c.transport
		cfg.Phone = c.phone
		cfg.Offload = c.offload
		// Pre-filters skew the timing comparison (skips shortcut the
		// protocol); measure the full path as the paper does.
		cfg.EnableMotionFilter = false
		cfg.EnableNoiseFilter = false
		sys, err := core.NewSystem(cfg, newRNG(seed+int64(i)))
		if err != nil {
			return nil, err
		}
		sc := core.DefaultScenario()
		var samples []float64
		for len(samples) < trials {
			r, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				return nil, err
			}
			if r.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
				continue
			}
			if !r.Unlocked {
				continue // only successful unlocks count toward delay
			}
			samples = append(samples, r.Timeline.Total().Seconds())
		}
		totals = append(totals, samples)
	}

	// PIN baselines.
	pinRNG := newRNG(seed + 100)
	pin4, err := NewPINEntryModel(4, pinRNG)
	if err != nil {
		return nil, err
	}
	pin6, err := NewPINEntryModel(6, pinRNG)
	if err != nil {
		return nil, err
	}
	var pin4s, pin6s []float64
	for i := 0; i < trials*2; i++ {
		pin4s = append(pin4s, pin4.Sample().Seconds())
		pin6s = append(pin6s, pin6.Sample().Seconds())
	}
	pin4Med := median(pin4s)
	pin6Med := median(pin6s)

	for i, c := range configs {
		med := median(totals[i])
		res.Rows = append(res.Rows, Fig12Row{
			Name:        c.name,
			Median:      time.Duration(med * float64(time.Second)),
			Mean:        time.Duration(mean(totals[i]) * float64(time.Second)),
			SpeedupPIN4: 1 - med/pin4Med,
			SpeedupPIN6: 1 - med/pin6Med,
			Trials:      len(totals[i]),
		})
	}
	res.Rows = append(res.Rows,
		Fig12Row{Name: "4-digit PIN (manual)", Median: time.Duration(pin4Med * float64(time.Second)), Mean: time.Duration(mean(pin4s) * float64(time.Second)), Trials: len(pin4s)},
		Fig12Row{Name: "6-digit PIN (manual)", Median: time.Duration(pin6Med * float64(time.Second)), Mean: time.Duration(mean(pin6s) * float64(time.Second)), Trials: len(pin6s)},
	)
	return res, nil
}

// RowFor returns the row with the given name prefix, or nil.
func (r *Fig12Result) RowFor(prefix string) *Fig12Row {
	for i := range r.Rows {
		if len(r.Rows[i].Name) >= len(prefix) && r.Rows[i].Name[:len(prefix)] == prefix {
			return &r.Rows[i]
		}
	}
	return nil
}

// Table renders the figure data.
func (r *Fig12Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 12 — Total unlock delay vs manual PIN entry",
		Columns: []string{"configuration", "median(ms)", "mean(ms)", "speedup vs PIN4", "speedup vs PIN6", "trials"},
	}
	for _, row := range r.Rows {
		s4, s6 := "-", "-"
		if row.SpeedupPIN4 != 0 {
			s4 = fmt.Sprintf("%.1f%%", row.SpeedupPIN4*100)
			s6 = fmt.Sprintf("%.1f%%", row.SpeedupPIN6*100)
		}
		t.Rows = append(t.Rows, []string{
			row.Name,
			ms(row.Median.Seconds()),
			ms(row.Mean.Seconds()),
			s4, s6,
			fmt.Sprintf("%d", row.Trials),
		})
	}
	t.Notes = append(t.Notes, "paper: speedup at least 17.7% on the slowest offload config and at least 58.6% on the fastest")
	return t
}
