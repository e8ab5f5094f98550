package motion

import "fmt"

// FilterDecision is the outcome of Alg. 1's two-threshold test.
type FilterDecision int

// Decisions of the sensor-based filter.
const (
	// DecisionContinue proceeds to the acoustic phase 2 normally.
	DecisionContinue FilterDecision = iota + 1
	// DecisionSkip skips phase 2: motion similarity is so high that the
	// devices are confidently on the same body (score < low threshold),
	// saving the acoustic transmission entirely.
	DecisionSkip
	// DecisionAbort aborts the protocol: the devices move independently
	// (score > high threshold), so unlocking must not proceed.
	DecisionAbort
)

// String implements fmt.Stringer.
func (d FilterDecision) String() string {
	switch d {
	case DecisionContinue:
		return "continue"
	case DecisionSkip:
		return "skip-phase-2"
	case DecisionAbort:
		return "abort"
	default:
		return fmt.Sprintf("FilterDecision(%d)", int(d))
	}
}

// Thresholds holds Alg. 1's two decision levels: dl (below which phase 2
// is skipped) and dh (above which the protocol aborts).
type Thresholds struct {
	Low  float64 // dl
	High float64 // dh
}

// DefaultThresholds matches the paper's operating point: a DTW score of
// 0.1 separates same-body from different-body motion (Sec. VI,
// "Sensor-based Filtering"); we skip phase 2 only under extremely strong
// similarity.
func DefaultThresholds() Thresholds {
	return Thresholds{Low: 0.015, High: 0.1}
}

// Validate checks threshold ordering.
func (t Thresholds) Validate() error {
	if t.Low < 0 || t.High <= t.Low {
		return fmt.Errorf("motion: thresholds low=%.4f high=%.4f must satisfy 0 <= low < high", t.Low, t.High)
	}
	return nil
}

// Decide applies Alg. 1 lines 8-13 to a DTW score.
func (t Thresholds) Decide(score float64) (FilterDecision, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	switch {
	case score > t.High:
		return DecisionAbort, nil
	case score < t.Low:
		return DecisionSkip, nil
	default:
		return DecisionContinue, nil
	}
}

// FilterResult bundles the score, decision, and DTW work performed for the
// protocol layer and the cost model.
type FilterResult struct {
	Score    float64
	Decision FilterDecision
	DTWCells int64
}

// Filter runs the full sensor-based filtering procedure of Alg. 1 on two
// raw magnitude traces.
func Filter(phone, watch []float64, thresholds Thresholds) (*FilterResult, error) {
	var ws Workspace
	fr, err := ws.Filter(phone, watch, thresholds)
	if err != nil {
		return nil, err
	}
	return &fr, nil
}

// Filter is the package-level Filter scoring in the workspace's buffers.
// phone and watch may be the workspace's own traces.
func (ws *Workspace) Filter(phone, watch []float64, thresholds Thresholds) (FilterResult, error) {
	score, cells, err := ws.NormalizedMagnitudeScore(phone, watch)
	if err != nil {
		return FilterResult{}, err
	}
	decision, err := thresholds.Decide(score)
	if err != nil {
		return FilterResult{}, err
	}
	return FilterResult{Score: score, Decision: decision, DTWCells: cells}, nil
}
