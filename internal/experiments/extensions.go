package experiments

import (
	"context"
	"fmt"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/attack"
	"wearlock/internal/core"
	"wearlock/internal/modem"
)

// Extension experiments: the paper's future-work features, evaluated the
// same way the paper evaluates its own mechanisms.

// ExtDistanceBoundingRow is one relay-delay cell.
type ExtDistanceBoundingRow struct {
	RelayDelay  time.Duration
	Attempts    int
	CaughtRange int // aborted by distance bounding
	CaughtTime  int // aborted by the coarse timing window
	Unlocked    int
}

// ExtDistanceBoundingResult holds the relay sweep.
type ExtDistanceBoundingResult struct {
	Rows []ExtDistanceBoundingRow
}

// ExtDistanceBounding sweeps relay store-and-forward delays and reports
// which defense catches each: the coarse Bluetooth timing window (150 ms
// slack) misses fast relays that acoustic time-of-flight still exposes —
// the Sec. IV-4 counter-measure quantified.
func ExtDistanceBounding(scale Scale, seed int64) (*ExtDistanceBoundingResult, error) {
	attempts := scale.trials(3, 10)
	res := &ExtDistanceBoundingResult{}
	delays := []time.Duration{
		20 * time.Millisecond,
		60 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
	}
	for i, delay := range delays {
		cfg := core.DefaultConfig()
		cfg.OTPKey = _otpKey
		cfg.EnableMotionFilter = false
		cfg.EnableNoiseFilter = false
		cfg.EnableDistanceBounding = true
		rng := newRNG(seed*100 + int64(i))
		sys, err := core.NewSystem(cfg, rng)
		if err != nil {
			return nil, err
		}
		sc := core.DefaultScenario()
		row := ExtDistanceBoundingRow{RelayDelay: delay, Attempts: attempts}
		for a := 0; a < attempts; a++ {
			link, err := sc.AcousticLink(cfg.Band, modem.DefaultSampleRate, rng)
			if err != nil {
				return nil, err
			}
			relay, err := attack.NewRelayPath(core.NewLinkPath(link), delay, 0, nil)
			if err != nil {
				return nil, err
			}
			r, err := sys.Unlock(context.Background(), sc, relay)
			if err != nil {
				return nil, err
			}
			switch r.Outcome {
			case core.OutcomeAbortedRange:
				row.CaughtRange++
			case core.OutcomeAbortedTiming:
				row.CaughtTime++
			case core.OutcomeLockedOut:
				sys.ManualUnlock()
			}
			if r.Unlocked {
				row.Unlocked++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep.
func (r *ExtDistanceBoundingResult) Table() *Table {
	t := &Table{
		Title:   "Extension — distance bounding vs relay store-and-forward delay",
		Columns: []string{"relay delay", "caught by range", "caught by timing", "unlocked"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.RelayDelay.String(),
			fmt.Sprintf("%d/%d", row.CaughtRange, row.Attempts),
			fmt.Sprintf("%d/%d", row.CaughtTime, row.Attempts),
			fmt.Sprintf("%d/%d", row.Unlocked, row.Attempts),
		})
	}
	t.Notes = append(t.Notes,
		"the 150 ms timing window alone misses sub-window relays; acoustic time of flight (20 ms ~ 6.9 m) catches them",
	)
	return t
}

// ExtUltrasound96kRow compares one band configuration.
type ExtUltrasound96kRow struct {
	Name        string
	SubChanHz   float64
	DataRateBps float64
	BER20cm     float64
	BER100cm    float64
}

// ExtUltrasound96kResult compares the 44.1 kHz near-ultrasound band with
// the 96 kHz true-ultrasound extension.
type ExtUltrasound96kResult struct {
	Rows []ExtUltrasound96kRow
}

// ExtUltrasound96k quantifies the Discussion's claim that higher sampling
// rates unlock "higher and more frequency bands with less noise and more
// bandwidth": same layout, roughly double the sub-channel bandwidth and
// data rate, comparable short-range BER.
func ExtUltrasound96k(scale Scale, seed int64) (*ExtUltrasound96kResult, error) {
	trials := scale.trials(3, 10)
	payload := 240
	res := &ExtUltrasound96kResult{}

	cfg96, err := modem.UltrasoundConfig(96000, modem.QPSK)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		cfg  modem.Config
	}{
		{"44.1k near-ultrasound (15-20 kHz)", modem.DefaultConfig(modem.BandNearUltrasound, modem.QPSK)},
		{"96k ultrasound (21.5-27 kHz)", cfg96},
	}
	for i, c := range configs {
		mod, err := modem.NewModulator(c.cfg)
		if err != nil {
			return nil, err
		}
		demod, err := modem.NewDemodulator(c.cfg)
		if err != nil {
			return nil, err
		}
		row := ExtUltrasound96kRow{
			Name:        c.name,
			SubChanHz:   c.cfg.SubChannelBandwidthHz(),
			DataRateBps: c.cfg.DataRate(),
		}
		measure := func(distance float64) (float64, error) {
			var sum float64
			rng := newRNG(seed*100 + int64(i))
			for trial := 0; trial < trials; trial++ {
				link, err := acoustic.NewLink(c.cfg.SampleRate, distance, acoustic.PhoneSpeaker(), acoustic.PhoneMic(), acoustic.Office(), rng)
				if err != nil {
					return 0, err
				}
				bits := modem.RandomBits(payload, rng)
				frame, err := mod.Modulate(bits)
				if err != nil {
					return 0, err
				}
				rec, err := link.Transmit(frame, 68)
				if err != nil {
					return 0, err
				}
				rx, err := demod.Demodulate(rec, payload)
				if err != nil {
					sum += 0.5
					continue
				}
				ber, err := modem.BER(rx.Bits, bits)
				if err != nil {
					return 0, err
				}
				sum += ber
			}
			return sum / float64(trials), nil
		}
		if row.BER20cm, err = measure(0.2); err != nil {
			return nil, err
		}
		if row.BER100cm, err = measure(1.0); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the comparison.
func (r *ExtUltrasound96kResult) Table() *Table {
	t := &Table{
		Title:   "Extension — 96 kHz ultrasound band vs 44.1 kHz near-ultrasound",
		Columns: []string{"configuration", "sub-channel(Hz)", "data rate(bit/s)", "BER@20cm", "BER@1m"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name,
			fmt.Sprintf("%.1f", row.SubChanHz),
			fmt.Sprintf("%.0f", row.DataRateBps),
			fmt.Sprintf("%.4f", row.BER20cm),
			fmt.Sprintf("%.4f", row.BER100cm),
		})
	}
	t.Notes = append(t.Notes, "paper Sec. VII: higher sampling rates enable higher, fully inaudible bands with more bandwidth")
	return t
}
