package experiments

import (
	"context"
	"fmt"
	"time"

	"wearlock/internal/core"
)

// Fig6Row compares one processing placement over a batch of unlock
// rounds.
type Fig6Row struct {
	Placement string
	Rounds    int
	// MeanProcessing is the per-round post-recording processing time
	// (probe analysis + pre-processing + demodulation, plus transfer
	// when offloading) — the quantity of Fig. 6(a).
	MeanProcessing time.Duration
	// WatchEnergyJ and WatchBatteryPct are the per-batch watch-side
	// energy figures of Fig. 6(b).
	WatchEnergyJ    float64
	WatchBatteryPct float64
	PhoneEnergyJ    float64
}

// Fig6Result holds the offloading comparison.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 reproduces Fig. 6: 50 rounds of acoustic unlocking with processing
// on the watch versus offloaded to the phone, comparing time cost and the
// (battery-status-style) power consumption. Offloading must win on both.
func Fig6(scale Scale, seed int64) (*Fig6Result, error) {
	rounds := scale.trials(6, 50)
	res := &Fig6Result{}
	for _, offload := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.OTPKey = _otpKey
		cfg.Offload = offload
		// The pre-filters are off so every round exercises the full DSP
		// pipeline, as in the paper's controlled measurement.
		cfg.EnableMotionFilter = false
		cfg.EnableNoiseFilter = false
		sys, err := core.NewSystem(cfg, newRNG(seed))
		if err != nil {
			return nil, err
		}
		sc := core.DefaultScenario()
		var processing []float64
		var watchJ, phoneJ float64
		for i := 0; i < rounds; i++ {
			r, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				return nil, err
			}
			if r.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
				continue
			}
			proc := r.Timeline.TotalFor("phase1/probe-processing") +
				r.Timeline.TotalFor("phase1/probe-upload") +
				r.Timeline.TotalFor("phase2/recording-upload") +
				r.Timeline.TotalFor("phase2/pre-processing") +
				r.Timeline.TotalFor("phase2/demodulation")
			processing = append(processing, proc.Seconds())
			watchJ += r.Energy.Total(cfg.Watch.Name)
			phoneJ += r.Energy.Total(cfg.Phone.Name)
		}
		placement := "local (Moto 360)"
		if offload {
			placement = "offloaded (Nexus 6)"
		}
		res.Rows = append(res.Rows, Fig6Row{
			Placement:       placement,
			Rounds:          rounds,
			MeanProcessing:  time.Duration(mean(processing) * float64(time.Second)),
			WatchEnergyJ:    watchJ,
			WatchBatteryPct: cfg.Watch.BatteryDrainPercent(watchJ),
			PhoneEnergyJ:    phoneJ,
		})
	}
	return res, nil
}

// Table renders the figure data.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Fig. 6 — Offloading vs local processing on the wearable",
		Columns: []string{"placement", "rounds", "mean processing(ms)", "watch energy(J)", "watch battery(%)", "phone energy(J)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Placement,
			fmt.Sprintf("%d", row.Rounds),
			ms(row.MeanProcessing.Seconds()),
			fmt.Sprintf("%.2f", row.WatchEnergyJ),
			fmt.Sprintf("%.3f", row.WatchBatteryPct),
			fmt.Sprintf("%.2f", row.PhoneEnergyJ),
		})
	}
	t.Notes = append(t.Notes, "paper: offloading to the smartphone both saves watch energy and reduces computation time")
	return t
}
