package motion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wearlock/internal/sim"
)

// The reference path below is the pre-filter as first written: fresh
// traces, fresh z-scored copies and fresh DTW rows on every call. The
// workspace path must reproduce it bit for bit with the same RNG draws.

func refTracePair(activity Activity, n int, colocated bool, rng *rand.Rand) (phone, watch []float64) {
	if colocated {
		phone = refSynthesize(activity, n, rng)
		return phone, refDeriveCoLocated(phone, activity, n, rng)
	}
	phone = refHoldTrace(n, rng)
	return phone, refSynthesize(activity, n, rng)
}

func refHoldTrace(n int, rng *rand.Rand) []float64 {
	const gravity = 9.81
	out := make([]float64, n)
	tremorFreq := 8 + 4*rng.Float64()
	phase := rng.Float64() * 2 * math.Pi
	for i := range out {
		t := float64(i) / DefaultSampleRateHz
		v := gravity
		v += 0.05 * math.Sin(2*math.Pi*0.3*t+phase)
		v += 0.03 * math.Sin(2*math.Pi*tremorFreq*t)
		v += 0.03 * rng.NormFloat64()
		out[i] = v
	}
	return out
}

func refSynthesize(activity Activity, n int, rng *rand.Rand) []float64 {
	const gravity = 9.81
	freq, amp, noise := activity.gait()
	out := make([]float64, n)
	phase := rng.Float64() * 2 * math.Pi
	drift := rng.NormFloat64() * 0.02
	for i := range out {
		t := float64(i) / DefaultSampleRateHz
		f := freq * (1 + drift)
		v := gravity
		v += amp * math.Sin(2*math.Pi*f*t+phase)
		v += 0.35 * amp * math.Sin(2*math.Pi*2*f*t+1.7*phase)
		v += noise * rng.NormFloat64()
		out[i] = v
	}
	return out
}

func refDeriveCoLocated(phone []float64, activity Activity, n int, rng *rand.Rand) []float64 {
	_, amp, noise := activity.gait()
	scale := 1 + 0.15*rng.NormFloat64()
	lag := rng.Intn(3)
	out := make([]float64, n)
	const gravity = 9.81
	for i := range out {
		j := i - lag
		if j < 0 {
			j = 0
		}
		shared := phone[j] - gravity
		out[i] = gravity + scale*shared + (noise+0.08*amp)*rng.NormFloat64()
	}
	return out
}

func refZScore(x []float64) []float64 {
	out := make([]float64, len(x))
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / float64(len(x))
	var ss float64
	for _, v := range x {
		d := v - mean
		ss += d * d
	}
	std := 0.0
	if len(x) >= 2 {
		std = math.Sqrt(ss / float64(len(x)))
	}
	if std == 0 {
		return out
	}
	for i, v := range x {
		out[i] = (v - mean) / std
	}
	return out
}

func refDTW(a, b []float64) (float64, int64) {
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	prevLen := make([]int32, m+1)
	curLen := make([]int32, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1]
			bestLen := prevLen[j-1]
			if prev[j] < best {
				best = prev[j]
				bestLen = prevLen[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
				bestLen = curLen[j-1]
			}
			cur[j] = cost + best
			curLen[j] = bestLen + 1
		}
		prev, cur = cur, prev
		prevLen, curLen = curLen, prevLen
	}
	if prevLen[m] == 0 {
		return 0, int64(n) * int64(m)
	}
	return prev[m] / float64(prevLen[m]), int64(n) * int64(m)
}

func refFilter(phone, watch []float64, th Thresholds) FilterResult {
	score, cells := refDTW(refZScore(phone), refZScore(watch))
	score /= 3
	decision, err := th.Decide(score)
	if err != nil {
		panic(err)
	}
	return FilterResult{Score: score, Decision: decision, DTWCells: cells}
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// One workspace, reused across every case with trace lengths that grow
// and shrink, must match the fresh-buffer reference in the traces, the
// score, the decision, the DTW cell count and the number of RNG draws.
func TestWorkspaceMatchesReferencePath(t *testing.T) {
	var ws Workspace
	th := DefaultThresholds()
	lengths := []int{100, 37, 150, 1}
	decisions := map[FilterDecision]int{}
	for _, activity := range AllActivities() {
		for _, colocated := range []bool{true, false} {
			for seed := int64(0); seed < 60; seed++ {
				n := lengths[seed%int64(len(lengths))]
				name := fmt.Sprintf("%v/colocated=%v/seed=%d/n=%d", activity, colocated, seed, n)
				refSrc, wsSrc := sim.NewCountingSource(seed), sim.NewCountingSource(seed)
				wantPhone, wantWatch := refTracePair(activity, n, colocated, rand.New(refSrc))
				want := refFilter(wantPhone, wantWatch, th)

				phone, watch, err := ws.TracePair(activity, n, colocated, rand.New(wsSrc))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !sameSeries(phone, wantPhone) || !sameSeries(watch, wantWatch) {
					t.Fatalf("%s: workspace traces differ from the reference", name)
				}
				got, err := ws.Filter(phone, watch, th)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Decision != want.Decision || got.DTWCells != want.DTWCells {
					t.Fatalf("%s: workspace %+v, reference %+v", name, got, want)
				}
				if wsSrc.Draws() != refSrc.Draws() {
					t.Fatalf("%s: workspace drew %d values, reference %d", name, wsSrc.Draws(), refSrc.Draws())
				}
				shim, err := Filter(phone, watch, th)
				if err != nil || *shim != want {
					t.Fatalf("%s: package Filter %+v (%v), reference %+v", name, shim, err, want)
				}
				decisions[got.Decision]++
			}
		}
	}
	if len(decisions) < 2 {
		t.Fatalf("every case decided the same way (%v); the comparison never crossed a threshold", decisions)
	}
}

// The package-level TracePair hands out caller-owned traces: two calls
// never share backing arrays.
func TestTracePairReturnsCallerOwnedTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p1, w1, err := TracePair(Walking, 50, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	p2, w2, err := TracePair(Walking, 50, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] == &p2[0] || &w1[0] == &w2[0] || &p1[0] == &w1[0] {
		t.Fatal("TracePair results share backing arrays")
	}
}

func TestWorkspaceFilterZeroAllocs(t *testing.T) {
	var ws Workspace
	rng := rand.New(rand.NewSource(1))
	th := DefaultThresholds()
	colocated := false
	run := func() {
		colocated = !colocated
		phone, watch, err := ws.TracePair(Running, 100, colocated, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Filter(phone, watch, th); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm Workspace TracePair+Filter allocates %.1f times, want 0", allocs)
	}
}
