package experiments

import (
	"context"
	"fmt"

	"wearlock/internal/acoustic"
	"wearlock/internal/core"
	"wearlock/internal/modem"
)

// Table1Row is one field-test cell: location x hand position x band.
type Table1Row struct {
	Location string
	SameHand bool
	Band     modem.Band
	BER      float64
	Mode     modem.Modulation // most frequently selected mode
	Unlocks  int
	Attempts int
}

// Table1Result holds the field test.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces the field test of Table I: WearLock exercised in four
// locations (office, classroom, cafe, grocery store), with the phone held
// in the other hand (LOS) or the watch hand (NLOS body blocking), over
// both frequency bands. Cells report the average BER and the mode the
// adaptive controller settled on. The paper's headline: average BER
// around 0.08, with near-ultrasound suffering badly in the same-hand case
// from direct-path blocking.
func Table1(scale Scale, seed int64) (*Table1Result, error) {
	attempts := scale.trials(4, 12)
	res := &Table1Result{}
	envs := acoustic.AllEnvironments()

	idx := int64(0)
	for _, band := range []modem.Band{modem.BandAudible, modem.BandNearUltrasound} {
		for _, sameHand := range []bool{false, true} {
			for _, env := range envs {
				idx++
				cfg := core.DefaultConfig()
				cfg.OTPKey = _otpKey
				cfg.Band = band
				// The field test measures the acoustic channel; motion
				// and ambient filters would only skip work.
				cfg.EnableMotionFilter = false
				cfg.EnableNoiseFilter = false
				sys, err := core.NewSystem(cfg, newRNG(seed*1000+idx))
				if err != nil {
					return nil, err
				}
				sc := core.DefaultScenario()
				sc.Env = env
				sc.SameHand = sameHand
				sc.Distance = 0.25

				var bers []float64
				modeCounts := make(map[modem.Modulation]int)
				unlocks := 0
				for i := 0; i < attempts; i++ {
					r, err := sys.Unlock(context.Background(), sc, nil)
					if err != nil {
						return nil, err
					}
					if r.Outcome == core.OutcomeLockedOut {
						sys.ManualUnlock()
					}
					if r.BER >= 0 {
						bers = append(bers, r.BER)
					}
					if r.Mode != 0 {
						modeCounts[r.Mode]++
					}
					if r.Unlocked {
						unlocks++
					}
				}
				res.Rows = append(res.Rows, Table1Row{
					Location: env.Name,
					SameHand: sameHand,
					Band:     band,
					BER:      mean(bers),
					Mode:     modalMode(modeCounts),
					Unlocks:  unlocks,
					Attempts: attempts,
				})
			}
		}
	}
	return res, nil
}

// modalMode returns the most frequently selected mode, 0 when none was.
// The modulations are walked in ascending order and only a strictly
// larger count replaces the pick, so a tie goes to the most robust mode
// instead of to whichever key map iteration visits first.
func modalMode(counts map[modem.Modulation]int) modem.Modulation {
	var best modem.Modulation
	bestCount := 0
	for _, m := range modem.AllModulations() {
		if c := counts[m]; c > bestCount {
			best, bestCount = m, c
		}
	}
	return best
}

// AverageBER returns the grand mean across all cells with measurements.
func (r *Table1Result) AverageBER() float64 {
	var xs []float64
	for _, row := range r.Rows {
		if row.BER > 0 {
			xs = append(xs, row.BER)
		}
	}
	return mean(xs)
}

// Table renders the field-test table.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title:   "Table I — Field test: BER by location, hand position, and band",
		Columns: []string{"band", "hand", "location", "BER(mode)", "unlocks"},
	}
	for _, row := range r.Rows {
		hand := "diff-hand"
		if row.SameHand {
			hand = "same-hand"
		}
		mode := "-"
		if row.Mode != 0 {
			mode = row.Mode.String()
		}
		t.Rows = append(t.Rows, []string{
			row.Band.String(),
			hand,
			row.Location,
			fmt.Sprintf("%.4f(%s)", row.BER, mode),
			fmt.Sprintf("%d/%d", row.Unlocks, row.Attempts),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average BER %.4f (paper: ~0.08)", r.AverageBER()),
		"paper: near-ultrasound fades badly in the same-hand (body-blocked) case; audible is more usable in noisy locations",
	)
	return t
}
