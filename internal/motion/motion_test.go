package motion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTWIdenticalSequences(t *testing.T) {
	var ws Workspace
	a := []float64{1, 2, 3, 2, 1, 0, -1}
	d, cells, err := ws.DTW(a, a)
	if err != nil {
		t.Fatalf("DTW: %v", err)
	}
	if d != 0 {
		t.Errorf("DTW(a, a) = %f, want 0", d)
	}
	if cells != int64(len(a))*int64(len(a)) {
		t.Errorf("cells = %d, want %d", cells, len(a)*len(a))
	}
}

func TestDTWEmptyInput(t *testing.T) {
	var ws Workspace
	if _, _, err := ws.DTW(nil, []float64{1}); err == nil {
		t.Error("DTW accepted empty sequence")
	}
	if _, _, err := ws.DTW([]float64{1}, nil); err == nil {
		t.Error("DTW accepted empty sequence")
	}
}

// DTW must be robust to time shifts: a shifted copy scores far lower than
// an unrelated sequence — the reason the paper picks DTW over plain
// correlation ("the alignment of the sensor time series is not necessary").
func TestDTWShiftInvariance(t *testing.T) {
	n := 100
	base := make([]float64, n)
	for i := range base {
		base[i] = math.Sin(2 * math.Pi * float64(i) / 25)
	}
	shifted := make([]float64, n)
	for i := range shifted {
		shifted[i] = math.Sin(2 * math.Pi * float64(i+4) / 25) // 4-sample lead
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	var ws Workspace
	dShift, _, err := ws.DTW(base, shifted)
	if err != nil {
		t.Fatalf("DTW: %v", err)
	}
	dRand, _, err := ws.DTW(base, random)
	if err != nil {
		t.Fatalf("DTW: %v", err)
	}
	if dShift*5 > dRand {
		t.Errorf("shifted DTW %.4f not much smaller than random DTW %.4f", dShift, dRand)
	}
}

// Properties: DTW is symmetric and non-negative.
func TestDTWProperties(t *testing.T) {
	var ws Workspace
	f := func(seed int64, an, bn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(an)%40 + 2
		m := int(bn)%40 + 2
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		dab, _, err1 := ws.DTW(a, b)
		dba, _, err2 := ws.DTW(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return dab >= 0 && math.Abs(dab-dba) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMagnitude(t *testing.T) {
	m, err := Magnitude([]float64{3}, []float64{4}, []float64{0})
	if err != nil {
		t.Fatalf("Magnitude: %v", err)
	}
	if m[0] != 5 {
		t.Errorf("Magnitude(3,4,0) = %f, want 5", m[0])
	}
	if _, err := Magnitude([]float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("Magnitude accepted mismatched axes")
	}
}

// Co-located traces must score well below the abort threshold for every
// activity; different-body traces must score above it (Table II: 0.02-0.06
// co-located vs 0.20 different).
func TestCoLocatedVsDifferentScores(t *testing.T) {
	th := DefaultThresholds()
	for _, activity := range AllActivities() {
		var coSum, diffSum float64
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(activity)*100 + int64(trial)))
			phone, watch, err := TracePair(activity, 100, true, rng)
			if err != nil {
				t.Fatalf("TracePair: %v", err)
			}
			score, _, err := NormalizedMagnitudeScore(phone, watch)
			if err != nil {
				t.Fatalf("score: %v", err)
			}
			coSum += score
			phone2, watch2, err := TracePair(activity, 100, false, rng)
			if err != nil {
				t.Fatalf("TracePair: %v", err)
			}
			score2, _, err := NormalizedMagnitudeScore(phone2, watch2)
			if err != nil {
				t.Fatalf("score: %v", err)
			}
			diffSum += score2
		}
		co := coSum / trials
		diff := diffSum / trials
		if co >= th.High {
			t.Errorf("%s: co-located mean score %.4f >= abort threshold %.2f", activity, co, th.High)
		}
		if co >= diff {
			t.Errorf("%s: co-located score %.4f not below different-body score %.4f", activity, co, diff)
		}
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := (Thresholds{Low: 0.2, High: 0.1}).Validate(); err == nil {
		t.Error("accepted low > high")
	}
	if err := (Thresholds{Low: -0.1, High: 0.1}).Validate(); err == nil {
		t.Error("accepted negative low")
	}
	if err := DefaultThresholds().Validate(); err != nil {
		t.Errorf("default thresholds invalid: %v", err)
	}
}

func TestDecide(t *testing.T) {
	th := Thresholds{Low: 0.01, High: 0.1}
	cases := []struct {
		score float64
		want  FilterDecision
	}{
		{0.005, DecisionSkip},
		{0.05, DecisionContinue},
		{0.5, DecisionAbort},
	}
	for _, tc := range cases {
		got, err := th.Decide(tc.score)
		if err != nil {
			t.Fatalf("Decide(%f): %v", tc.score, err)
		}
		if got != tc.want {
			t.Errorf("Decide(%f) = %s, want %s", tc.score, got, tc.want)
		}
	}
	if _, err := (Thresholds{Low: 1, High: 0}).Decide(0.5); err == nil {
		t.Error("Decide accepted invalid thresholds")
	}
}

func TestFilterEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	phone, watch, err := TracePair(Walking, 100, true, rng)
	if err != nil {
		t.Fatalf("TracePair: %v", err)
	}
	res, err := Filter(phone, watch, DefaultThresholds())
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if res.Decision == DecisionAbort {
		t.Errorf("co-located walking aborted (score %.4f)", res.Score)
	}
	if res.DTWCells != 100*100 {
		t.Errorf("DTWCells = %d, want 10000", res.DTWCells)
	}
}

func TestTracePairValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := TracePair(Walking, 0, true, rng); err == nil {
		t.Error("TracePair accepted zero length")
	}
	if _, _, err := TracePair(Walking, 10, true, nil); err == nil {
		t.Error("TracePair accepted nil rng")
	}
}

func TestActivityString(t *testing.T) {
	if Sitting.String() != "sitting" || Walking.String() != "walking" || Running.String() != "running" {
		t.Error("activity names wrong")
	}
}
