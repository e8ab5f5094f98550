package modem

import (
	"fmt"
	"math"
	"sort"
)

// Adaptive modulation (Sec. III-7): unlike throughput-maximizing systems,
// WearLock picks the modulation mode whose predicted BER at the measured
// Eb/N0 stays under a target MaxBER — exploiting propagation loss so the
// signal decodes inside ~1 m and degrades quickly beyond.

// BERPoint is one (Eb/N0, BER) calibration sample.
type BERPoint struct {
	EbN0dB float64
	BER    float64
}

// BERCurve is a monotone-decreasing calibration curve for one modulation,
// fitted the way Fig. 5 fits logarithmic trend lines through measured
// scatter.
type BERCurve struct {
	Modulation Modulation
	Points     []BERPoint // sorted by EbN0dB ascending
}

// PredictBER interpolates the curve (log-domain in BER) at the given
// Eb/N0. Outside the calibrated range the nearest endpoint is returned.
func (c *BERCurve) PredictBER(ebN0dB float64) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return 0.5
	}
	if ebN0dB <= pts[0].EbN0dB {
		return pts[0].BER
	}
	if ebN0dB >= pts[len(pts)-1].EbN0dB {
		return pts[len(pts)-1].BER
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].EbN0dB >= ebN0dB })
	lo, hi := pts[i-1], pts[i]
	t := (ebN0dB - lo.EbN0dB) / (hi.EbN0dB - lo.EbN0dB)
	// Interpolate log10(BER) for the straight-line-on-log-axis shape.
	logLo := math.Log10(math.Max(lo.BER, 1e-6))
	logHi := math.Log10(math.Max(hi.BER, 1e-6))
	return math.Pow(10, logLo+t*(logHi-logLo))
}

// MinEbN0For returns the smallest Eb/N0 at which the curve's predicted BER
// is at or below target, or +inf if the curve never reaches it.
func (c *BERCurve) MinEbN0For(targetBER float64) float64 {
	pts := c.Points
	for i := range pts {
		if pts[i].BER <= targetBER {
			if i == 0 {
				return pts[0].EbN0dB
			}
			// Invert the log-linear segment crossing the target.
			lo, hi := pts[i-1], pts[i]
			logLo := math.Log10(math.Max(lo.BER, 1e-6))
			logHi := math.Log10(math.Max(hi.BER, 1e-6))
			logT := math.Log10(targetBER)
			if logHi == logLo {
				return hi.EbN0dB
			}
			t := (logT - logLo) / (logHi - logLo)
			return lo.EbN0dB + t*(hi.EbN0dB-lo.EbN0dB)
		}
	}
	return math.Inf(1)
}

// ModeTable holds the calibration curves for the transmission modes and
// answers mode-selection queries.
type ModeTable struct {
	curves map[Modulation]*BERCurve
	// modes lists the curves' modulations by increasing bits per symbol
	// (robust first), sorted once by NewModeTable.
	modes []Modulation
}

// NewModeTable builds a table from calibration curves.
func NewModeTable(curves []*BERCurve) (*ModeTable, error) {
	if len(curves) == 0 {
		return nil, fmt.Errorf("modem: mode table needs at least one curve")
	}
	m := make(map[Modulation]*BERCurve, len(curves))
	for _, c := range curves {
		if !c.Modulation.Valid() {
			return nil, fmt.Errorf("modem: curve for invalid modulation %d", int(c.Modulation))
		}
		if len(c.Points) < 2 {
			return nil, fmt.Errorf("modem: curve for %s has %d points, need >= 2", c.Modulation, len(c.Points))
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].EbN0dB <= c.Points[i-1].EbN0dB {
				return nil, fmt.Errorf("modem: curve for %s not sorted by Eb/N0", c.Modulation)
			}
		}
		m[c.Modulation] = c
	}
	modes := make([]Modulation, 0, len(m))
	for mod := range m {
		modes = append(modes, mod)
	}
	sort.Slice(modes, func(i, j int) bool {
		bi, bj := modes[i].BitsPerSymbol(), modes[j].BitsPerSymbol()
		if bi != bj {
			return bi < bj
		}
		return modes[i] < modes[j]
	})
	return &ModeTable{curves: m, modes: modes}, nil
}

// DefaultModeTable returns curves calibrated against this repository's
// channel simulator (the Fig. 5 experiment regenerates the underlying
// scatter; see internal/experiments). Two hardware effects shape them:
// additive noise dominates at low Eb/N0 (theoretical AWGN ordering), and
// the chain's uneven phase response leaves the higher-order phase schemes
// with a residual BER floor at high Eb/N0 — which is why 16QAM is excluded
// and 8PSK only satisfies loose BER targets (Sec. III-7).
func DefaultModeTable() *ModeTable {
	table, err := NewModeTable([]*BERCurve{
		{Modulation: QASK, Points: []BERPoint{
			{0, 0.48}, {8, 0.35}, {12, 0.22}, {16, 0.12}, {20, 0.055}, {24, 0.028}, {30, 0.012}, {36, 0.007},
		}},
		{Modulation: QPSK, Points: []BERPoint{
			{0, 0.48}, {8, 0.25}, {12, 0.10}, {16, 0.04}, {20, 0.012}, {24, 0.005}, {30, 0.002}, {36, 0.002},
		}},
		{Modulation: PSK8, Points: []BERPoint{
			{0, 0.48}, {8, 0.33}, {12, 0.18}, {16, 0.09}, {20, 0.05}, {24, 0.04}, {30, 0.035}, {36, 0.03},
		}},
	})
	if err != nil {
		// The literal curves above are well-formed by construction.
		panic(err)
	}
	return table
}

// ErrNoMode is returned when no modulation meets the BER constraint.
type ErrNoMode struct {
	EbN0dB float64
	MaxBER float64
}

// Error implements error.
func (e *ErrNoMode) Error() string {
	return fmt.Sprintf("modem: no transmission mode achieves BER <= %.3f at Eb/N0 %.1f dB", e.MaxBER, e.EbN0dB)
}

// SelectMode picks the highest-order (fastest) modulation whose predicted
// BER at the measured Eb/N0 is at most maxBER, as in the paper's example:
// at Eb/N0 = 35 dB with MaxBER = 0.1 choose 8PSK; with MaxBER = 0.01 fall
// back to QPSK or QASK.
func (t *ModeTable) SelectMode(ebN0dB, maxBER float64) (Modulation, error) {
	if maxBER <= 0 || maxBER >= 1 {
		return 0, fmt.Errorf("modem: MaxBER %.4f outside (0, 1)", maxBER)
	}
	for i := len(t.modes) - 1; i >= 0; i-- {
		if t.curves[t.modes[i]].PredictBER(ebN0dB) <= maxBER {
			return t.modes[i], nil
		}
	}
	return 0, &ErrNoMode{EbN0dB: ebN0dB, MaxBER: maxBER}
}

// SelectMostRobust picks the modulation with the lowest predicted BER at
// the measured Eb/N0, provided it meets maxBER. The protocol uses this as
// the NLOS fallback: when no mode satisfies the strict target, body
// blocking relaxes the acceptance bound but the choice stays conservative.
func (t *ModeTable) SelectMostRobust(ebN0dB, maxBER float64) (Modulation, error) {
	if maxBER <= 0 || maxBER >= 1 {
		return 0, fmt.Errorf("modem: MaxBER %.4f outside (0, 1)", maxBER)
	}
	var best Modulation
	bestBER := math.Inf(1)
	for m, c := range t.curves {
		if ber := c.PredictBER(ebN0dB); ber < bestBER {
			best, bestBER = m, ber
		}
	}
	if bestBER > maxBER {
		return 0, &ErrNoMode{EbN0dB: ebN0dB, MaxBER: maxBER}
	}
	return best, nil
}

// MinEbN0 returns the smallest Eb/N0 at which any mode meets maxBER — the
// SNR_min of the link-budget bound in "How adaptive modulation works".
func (t *ModeTable) MinEbN0(maxBER float64) float64 {
	best := math.Inf(1)
	for _, c := range t.curves {
		if v := c.MinEbN0For(maxBER); v < best {
			best = v
		}
	}
	return best
}
