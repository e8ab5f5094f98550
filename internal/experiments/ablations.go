package experiments

import (
	"context"
	"fmt"

	"wearlock/internal/acoustic"
	"wearlock/internal/core"
	"wearlock/internal/modem"
)

// Ablations beyond the paper's own (Figs. 6 and 9 are ablations already):
// the design choices DESIGN.md calls out — cyclic-prefix fine
// synchronization, the FFT-interpolating equalizer, and the motion
// pre-filter's transmission savings.

// AblationRow is one variant's measurement.
type AblationRow struct {
	Variant string
	Metric  string
	Value   float64
}

// AblationResult holds one ablation's rows.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// AblationFineSync compares BER with the Eq. 2 fine synchronization on
// and off, at moderate range where symbol-timing drift matters.
func AblationFineSync(scale Scale, seed int64) (*AblationResult, error) {
	rng := newRNG(seed)
	trials := scale.trials(4, 16)
	payload := 240
	cfg := modem.DefaultConfig(modem.BandAudible, modem.QPSK)
	res := &AblationResult{Name: "fine-sync"}

	for _, enabled := range []bool{true, false} {
		var bers []float64
		for trial := 0; trial < trials; trial++ {
			link, err := acoustic.NewLink(cfg.SampleRate, 0.6, acoustic.PhoneSpeaker(), acoustic.WatchMic(), acoustic.Office(), rng)
			if err != nil {
				return nil, err
			}
			mod, err := modem.NewModulator(cfg)
			if err != nil {
				return nil, err
			}
			demod, err := modem.NewDemodulator(cfg)
			if err != nil {
				return nil, err
			}
			demod.FineSyncEnabled = enabled
			bits := modem.RandomBits(payload, rng)
			frame, err := mod.Modulate(bits)
			if err != nil {
				return nil, err
			}
			rec, err := link.Transmit(frame, 78)
			if err != nil {
				return nil, err
			}
			rx, err := demod.Demodulate(rec, payload)
			if err != nil {
				bers = append(bers, 0.5)
				continue
			}
			ber, err := modem.BER(rx.Bits, bits)
			if err != nil {
				return nil, err
			}
			bers = append(bers, ber)
		}
		name := "fine-sync-off"
		if enabled {
			name = "fine-sync-on"
		}
		res.Rows = append(res.Rows, AblationRow{Variant: name, Metric: "BER", Value: mean(bers)})
	}
	return res, nil
}

// AblationEqualizer compares the pilot-interpolation methods of the
// equalizer: the paper's FFT interpolation against linear, nearest-pilot,
// and no per-bin equalization.
func AblationEqualizer(scale Scale, seed int64) (*AblationResult, error) {
	rng := newRNG(seed)
	trials := scale.trials(4, 16)
	payload := 240
	cfg := modem.DefaultConfig(modem.BandAudible, modem.QPSK)
	res := &AblationResult{Name: "equalizer"}

	methods := []modem.EqualizerMethod{
		modem.EqualizeFFTInterp,
		modem.EqualizeLinear,
		modem.EqualizeNearest,
		modem.EqualizeNone,
	}
	for _, method := range methods {
		var bers []float64
		for trial := 0; trial < trials; trial++ {
			link, err := acoustic.NewLink(cfg.SampleRate, 0.3, acoustic.PhoneSpeaker(), acoustic.WatchMic(), acoustic.Office(), rng)
			if err != nil {
				return nil, err
			}
			mod, err := modem.NewModulator(cfg)
			if err != nil {
				return nil, err
			}
			demod, err := modem.NewDemodulator(cfg)
			if err != nil {
				return nil, err
			}
			demod.SetEqualizerMethod(method)
			bits := modem.RandomBits(payload, rng)
			frame, err := mod.Modulate(bits)
			if err != nil {
				return nil, err
			}
			rec, err := link.Transmit(frame, 78)
			if err != nil {
				return nil, err
			}
			rx, err := demod.Demodulate(rec, payload)
			if err != nil {
				bers = append(bers, 0.5)
				continue
			}
			ber, err := modem.BER(rx.Bits, bits)
			if err != nil {
				return nil, err
			}
			bers = append(bers, ber)
		}
		res.Rows = append(res.Rows, AblationRow{Variant: method.String(), Metric: "BER", Value: mean(bers)})
	}
	return res, nil
}

// AblationMotionFilter measures how many acoustic transmissions the
// motion pre-filter saves per 100 power-button events in a mixed workload
// (half legitimate co-located unlocks, half attacker grabs), and verifies
// the attacker side never unlocks via the skip path.
func AblationMotionFilter(scale Scale, seed int64) (*AblationResult, error) {
	events := scale.trials(20, 100)
	res := &AblationResult{Name: "motion-filter"}

	for _, enabled := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.OTPKey = _otpKey
		cfg.EnableMotionFilter = enabled
		cfg.EnableNoiseFilter = false
		sys, err := core.NewSystem(cfg, newRNG(seed))
		if err != nil {
			return nil, err
		}
		transmissions := 0
		falseUnlocks := 0
		for i := 0; i < events; i++ {
			sc := core.DefaultScenario()
			if i%2 == 1 { // attacker grab
				sc.SameBody = false
			}
			r, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				return nil, err
			}
			if r.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
			// Any phase-1 on-air time means an acoustic transmission ran.
			if r.Timeline.TotalFor("phase1/probe-on-air") > 0 {
				transmissions++
			}
			if i%2 == 1 && r.Unlocked {
				falseUnlocks++
			}
		}
		name := "filter-off"
		if enabled {
			name = "filter-on"
		}
		res.Rows = append(res.Rows,
			AblationRow{Variant: name, Metric: "acoustic-transmissions", Value: float64(transmissions)},
			AblationRow{Variant: name, Metric: "attacker-unlocks", Value: float64(falseUnlocks)},
		)
	}
	return res, nil
}

// Table renders an ablation.
func (r *AblationResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation — %s", r.Name),
		Columns: []string{"variant", "metric", "value"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Variant, row.Metric, fmt.Sprintf("%.4f", row.Value)})
	}
	return t
}
