// Package motion implements WearLock's sensor-based pre-filter (Sec. V,
// Alg. 1): accelerometer traces from the phone and watch are reduced to
// normalized magnitude series and compared with dynamic time warping; high
// similarity means both devices ride the same body, so the acoustic phase
// can proceed (or be skipped entirely), while dissimilar motion aborts the
// protocol before any expensive DSP runs.
//
// Real accelerometers are unavailable in this environment, so the package
// also synthesizes traces: each activity is a characteristic gait
// oscillation shared between co-located devices, plus independent
// per-device mounting noise and a small sensor-clock lag — the structure
// DTW similarity actually keys on.
package motion

import (
	"fmt"
	"math"
	"math/rand"
)

// Activity labels the user context during an unlock attempt, matching the
// Table II conditions.
type Activity int

// Supported activities.
const (
	Sitting Activity = iota + 1
	Walking
	Running
)

// String implements fmt.Stringer.
func (a Activity) String() string {
	switch a {
	case Sitting:
		return "sitting"
	case Walking:
		return "walking"
	case Running:
		return "running"
	default:
		return fmt.Sprintf("Activity(%d)", int(a))
	}
}

// AllActivities returns the activities in Table II order.
func AllActivities() []Activity {
	return []Activity{Sitting, Walking, Running}
}

// DefaultSampleRateHz is the sensor sampling rate; Android's
// SENSOR_DELAY_GAME delivers ~50 Hz, and the paper's DTW inputs are 50-150
// samples (1-3 s).
const DefaultSampleRateHz = 50

// gait returns the oscillation parameters for an activity: fundamental
// frequency (Hz), oscillation amplitude (m/s^2), and noise floor.
func (a Activity) gait() (freq, amp, noise float64) {
	switch a {
	case Sitting:
		return 0.4, 0.22, 0.04 // breathing/posture sway
	case Walking:
		return 1.9, 2.4, 0.25
	case Running:
		return 2.8, 6.5, 0.8
	default:
		return 0, 0, 0.05
	}
}

// TracePair synthesizes simultaneous phone and watch magnitude traces of n
// samples. When colocated, both traces share the activity's body
// oscillation (with device-specific amplitude scaling, lag, and mounting
// noise). Otherwise the watch continues the victim's activity while the
// phone records an attacker's steady hold — small tremor and drift — the
// physical situation the motion filter is designed to flag. The returned
// traces are the caller's.
func TracePair(activity Activity, n int, colocated bool, rng *rand.Rand) (phone, watch []float64, err error) {
	var ws Workspace
	return ws.TracePair(activity, n, colocated, rng)
}

// TracePair is the package-level TracePair writing into the workspace's
// trace buffers; the returned traces alias them.
func (ws *Workspace) TracePair(activity Activity, n int, colocated bool, rng *rand.Rand) (phone, watch []float64, err error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("motion: trace length %d must be positive", n)
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("motion: trace generation requires a random source")
	}
	ws.phone = resize(ws.phone, n)
	ws.watch = resize(ws.watch, n)
	if colocated {
		synthesizeInto(ws.phone, activity, rng)
		deriveCoLocatedInto(ws.watch, ws.phone, activity, rng)
	} else {
		holdTraceInto(ws.phone, rng)
		synthesizeInto(ws.watch, activity, rng)
	}
	return ws.phone, ws.watch, nil
}

// TraceIndependent synthesizes traces for two devices performing
// independent activities — the "Different" column of Table II.
func TraceIndependent(phoneActivity, watchActivity Activity, n int, rng *rand.Rand) (phone, watch []float64, err error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("motion: trace length %d must be positive", n)
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("motion: trace generation requires a random source")
	}
	phone, watch = make([]float64, n), make([]float64, n)
	synthesizeInto(phone, phoneActivity, rng)
	synthesizeInto(watch, watchActivity, rng)
	return phone, watch, nil
}

// holdTraceInto models a hand deliberately holding a phone steady: slow
// drift plus physiological tremor (8-12 Hz, tiny amplitude).
func holdTraceInto(out []float64, rng *rand.Rand) {
	const gravity = 9.81
	tremorFreq := 8 + 4*rng.Float64()
	phase := rng.Float64() * 2 * math.Pi
	for i := range out {
		t := float64(i) / DefaultSampleRateHz
		v := gravity
		v += 0.05 * math.Sin(2*math.Pi*0.3*t+phase) // slow drift
		v += 0.03 * math.Sin(2*math.Pi*tremorFreq*t)
		v += 0.03 * rng.NormFloat64()
		out[i] = v
	}
}

// synthesizeInto builds one device's magnitude trace: gravity plus gait
// oscillation with harmonics, phase drift, and sensor noise.
func synthesizeInto(out []float64, activity Activity, rng *rand.Rand) {
	const gravity = 9.81
	freq, amp, noise := activity.gait()
	phase := rng.Float64() * 2 * math.Pi
	drift := rng.NormFloat64() * 0.02
	for i := range out {
		t := float64(i) / DefaultSampleRateHz
		f := freq * (1 + drift)
		v := gravity
		v += amp * math.Sin(2*math.Pi*f*t+phase)
		v += 0.35 * amp * math.Sin(2*math.Pi*2*f*t+1.7*phase) // heel-strike harmonic
		v += noise * rng.NormFloat64()
		out[i] = v
	}
}

// deriveCoLocatedInto produces the watch's view of the same body motion:
// a scaled, slightly lagged copy of the shared oscillation with its own
// mounting noise (the wrist swings more than the pocket).
func deriveCoLocatedInto(out, phone []float64, activity Activity, rng *rand.Rand) {
	_, amp, noise := activity.gait()
	scale := 1 + 0.15*rng.NormFloat64()
	lag := rng.Intn(3) // sensor pipeline skew, up to ~60 ms
	const gravity = 9.81
	for i := range out {
		j := i - lag
		if j < 0 {
			j = 0
		}
		shared := phone[j] - gravity
		out[i] = gravity + scale*shared + (noise+0.08*amp)*rng.NormFloat64()
	}
}
