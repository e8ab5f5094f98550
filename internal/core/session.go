package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/device"
	"wearlock/internal/dsp"
	"wearlock/internal/keyguard"
	"wearlock/internal/modem"
	"wearlock/internal/motion"
	"wearlock/internal/otp"
	"wearlock/internal/wireless"
)

// Outcome classifies how an unlock session ended.
type Outcome int

// Session outcomes. Aborts before phase 2 skip the OTP entirely and do not
// count against the keyguard failure budget; a decoded-but-wrong token
// does.
const (
	OutcomeUnlocked Outcome = iota + 1
	// OutcomeSkipUnlocked: Alg. 1 found the motion similarity so strong
	// that phase 2 was skipped and the phone unlocked on the pre-filter.
	OutcomeSkipUnlocked
	OutcomeAbortedLinkDown
	OutcomeAbortedMotion
	OutcomeAbortedNoiseMismatch
	OutcomeAbortedNoSignal
	OutcomeAbortedNoMode
	OutcomeAbortedTiming
	// OutcomeAbortedRange: the distance-bounding extension measured an
	// acoustic time of flight implying the transmitter is outside the
	// secure boundary (a relay's store-and-forward delay shows up here).
	OutcomeAbortedRange
	OutcomeTokenMismatch
	OutcomeLockedOut
	// OutcomeDegradedUnlocked: the resilience ladder succeeded, but only
	// after stepping down to the robust-modulation or tone-ACK rung.
	OutcomeDegradedUnlocked
	// OutcomeFallbackPIN: the resilience ladder exhausted its retries and
	// the keyguard fell back to manual PIN entry (the phone ends usable,
	// but WearLock did not unlock it).
	OutcomeFallbackPIN
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeUnlocked:
		return "unlocked"
	case OutcomeSkipUnlocked:
		return "unlocked-by-motion-filter"
	case OutcomeAbortedLinkDown:
		return "aborted-link-down"
	case OutcomeAbortedMotion:
		return "aborted-motion-mismatch"
	case OutcomeAbortedNoiseMismatch:
		return "aborted-noise-mismatch"
	case OutcomeAbortedNoSignal:
		return "aborted-no-signal"
	case OutcomeAbortedNoMode:
		return "aborted-no-usable-mode"
	case OutcomeAbortedTiming:
		return "aborted-timing-window"
	case OutcomeAbortedRange:
		return "aborted-distance-bound"
	case OutcomeTokenMismatch:
		return "token-mismatch"
	case OutcomeLockedOut:
		return "locked-out"
	case OutcomeDegradedUnlocked:
		return "unlocked-degraded"
	case OutcomeFallbackPIN:
		return "fallback-pin"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result reports everything a session learned, including the full delay
// timeline and energy ledger the performance experiments consume.
type Result struct {
	Outcome  Outcome
	Unlocked bool
	Detail   string // human-readable reason for aborts

	// Modem diagnostics.
	Mode         modem.Modulation // selected transmission mode (0 if none)
	BER          float64          // decoded-vs-sent BER; -1 when unknown
	PSNRdB       float64
	EbN0dB       float64
	VolumeSPL    float64
	DataChannels []int

	// Filter diagnostics.
	MotionScore     float64
	MotionDecision  motion.FilterDecision
	NoiseSimilarity float64
	NLOSDetected    bool
	DelaySpread     time.Duration
	// EstimatedDistance is the acoustic time-of-flight range estimate
	// (meters) from the probe's arrival position; -1 when unmeasured.
	EstimatedDistance float64

	Timeline *Timeline
	Energy   *EnergyLedger

	// Resilience diagnostics (left at zero values when the ladder is off).
	// Attempts counts unlock attempts including the first; Degradation is
	// the deepest ladder rung the session reached.
	Attempts    int
	Degradation DegradationLevel
}

// reset readies r for a session: every field back to its starting value
// (BER and EstimatedDistance at their -1 "unmeasured" sentinels), with
// the Timeline, Energy ledger and DataChannels storage r already owns
// kept and emptied. A Result without a Timeline gets one sized for steps.
func (r *Result) reset(steps int) {
	tl, energy, chans := r.Timeline, r.Energy, r.DataChannels[:0]
	if tl == nil {
		tl = &Timeline{steps: make([]Step, 0, steps)}
	} else {
		tl.steps = tl.steps[:0]
	}
	if energy == nil {
		energy = NewEnergyLedger()
	} else {
		energy.reset()
	}
	*r = Result{BER: -1, EstimatedDistance: -1, Timeline: tl, Energy: energy, DataChannels: chans}
}

// System is a paired phone + watch running the WearLock controllers: it
// owns the shared OTP state, the keyguard, and the deployment
// configuration, and executes unlock sessions against scenarios.
type System struct {
	cfg   Config
	key   []byte // shared pairing secret (exported for durability)
	gen   *otp.Generator
	ver   *otp.Verifier
	guard *keyguard.Keyguard
	rng   *rand.Rand
	now   time.Time // simulated wall clock, advanced by each session
	// motionWS holds the pre-filter's traces and DTW rows between
	// sessions; like rng, it confines a System to one goroutine.
	motionWS motion.Workspace
}

// NewSystem pairs a phone and watch: generates the shared OTP key (over
// the secure wireless channel, per the threat model) and initializes the
// keyguard to locked.
func NewSystem(cfg Config, rng *rand.Rand) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: system requires a random source")
	}
	key := cfg.OTPKey
	if key == nil {
		// Derive the shared secret from the session RNG, not
		// crypto/rand: rng is documented to drive every stochastic
		// element, and a hidden entropy source here would make two
		// systems built from the same seed transmit different tokens.
		// Deployments supply a real negotiated secret via cfg.OTPKey.
		key = make([]byte, otp.KeySize)
		for i := range key {
			key[i] = byte(rng.Intn(256))
		}
	}
	gen, err := otp.NewGenerator(key, 0)
	if err != nil {
		return nil, err
	}
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		return nil, err
	}
	return &System{
		cfg:   cfg,
		key:   key,
		gen:   gen,
		ver:   ver,
		guard: keyguard.New(),
		rng:   rng,
		now:   time.Unix(1700000000, 0),
	}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Keyguard exposes the lock state machine (read-mostly; examples and the
// attack harness inspect it).
func (s *System) Keyguard() *keyguard.Keyguard { return s.guard }

// Fixed platform overheads on the session timeline.
const (
	_osWakeup       = 30 * time.Millisecond // power button to app wakeup
	_recordingSetup = 25 * time.Millisecond // AudioRecord start latency
	_speakerPowerW  = 0.09                  // phone speaker drive power
	_micPowerW      = 0.02                  // watch recording power
)

// Unlock runs one unlock session for the scenario into a fresh Result:
// new(Result) plus UnlockInto, which holds the session body and its
// contract.
func (s *System) Unlock(ctx context.Context, sc Scenario, path AcousticPath) (*Result, error) {
	res := new(Result)
	if err := s.UnlockInto(ctx, sc, path, res); err != nil {
		return nil, err
	}
	return res, nil
}

// UnlockInto runs one unlock session for the scenario and is the only way
// into one. A nil path builds the honest acoustic link from the scenario
// for each attempt, so channel randomness re-rolls per attempt exactly as
// a re-recorded transmission would; a non-nil path (attack harness,
// tests) carries every attempt. cfg.Resilience alone decides whether the
// session is one classic attempt or walks the degradation ladder down to
// the manual PIN fallback.
//
// UnlockInto resets res and refills it, reusing the storage res already
// owns (its Timeline, Energy ledger and DataChannels): a caller that runs
// session after session into one Result allocates none of it again.
// Ownership: res and everything it points to belong to the caller, and
// the next UnlockInto into res overwrites all of it, so whatever must
// outlive that call is copied out first. On error res holds a partial
// session and should be discarded.
//
// Cancellation is checked between protocol phases (never mid-DSP), so a
// canceled session returns promptly with ctx's error and the system state
// stays consistent: the keyguard and OTP counters only advance in phases
// that ran to completion.
//
// UnlockInto drives an UnlockMachine to completion; the virtual-time
// engine steps the same machine one event at a time, so the two are
// bit-identical.
func (s *System) UnlockInto(ctx context.Context, sc Scenario, path AcousticPath, res *Result) error {
	m := s.NewUnlockMachine(sc, path)
	m.dst = res
	for {
		st, err := m.Step(ctx)
		if err != nil {
			return err
		}
		if st.Done {
			if st.Final != res {
				// The ladder built its per-attempt Results as the machine
				// always does; the caller's Result takes the merged one.
				*res = *st.Final
			}
			return nil
		}
	}
}

// UnlockViaCtx forwards to Unlock.
//
// Deprecated: use Unlock. The bench module (bench/replay.go) still calls
// it; the forwarder goes when that caller moves to Unlock.
func (s *System) UnlockViaCtx(ctx context.Context, sc Scenario, path AcousticPath) (*Result, error) {
	return s.Unlock(ctx, sc, path)
}

// profiles returns the session's effective device profiles: the scenario's
// armed compute slowdown (thermal throttling, background load) divides the
// throughput of both devices. Radio and power figures are untouched.
func (s *System) profiles(sc Scenario) (phone, watch device.Profile) {
	phone, watch = s.cfg.Phone, s.cfg.Watch
	if factor := sc.Faults.ComputeSlowdown(); factor > 1 {
		phone = phone.Slowed(factor)
		watch = watch.Slowed(factor)
	}
	return phone, watch
}

// phaseTimeout reports the per-operation simulated-time bound (0 = none).
func (s *System) phaseTimeout() time.Duration {
	if !s.cfg.Resilience.Enabled {
		return 0
	}
	return s.cfg.Resilience.PhaseTimeout
}

// isFinite reports whether v is a real number (not NaN or ±Inf).
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// boundPhase enforces the per-phase timeout on one wireless operation.
// The returned duration is what the devices actually spend: capped at
// the timeout, because both sides stop waiting when the timer fires —
// a chaos-inflated 30 s transfer must not charge 30 s of simulated
// time. The error reports the overrun.
func (s *System) boundPhase(name string, d time.Duration) (time.Duration, error) {
	if pt := s.phaseTimeout(); pt > 0 && d > pt {
		return pt, fmt.Errorf("core: %s ran past the %v phase timeout", name, pt)
	}
	return d, nil
}

// attemptOpts parameterizes one attempt for the degradation ladder.
type attemptOpts struct {
	// forceRobust skips the strict MaxBER pass of mode selection and goes
	// straight to the most robust mode under the relaxed bound.
	forceRobust bool
	// repetition overrides the configured repetition factor when > 0.
	repetition int
	// toneOnly replaces the OFDM phase 2 with the tone-ACK rung.
	toneOnly bool
}

// unlockAttempt is one pass of the protocol — the classic session and
// each rung of the resilient ladder — on an idle workspace, into res. A
// nil path builds the attempt's honest link in the workspace.
func (s *System) unlockAttempt(ctx context.Context, sc Scenario, path AcousticPath, opts attemptOpts, res *Result) error {
	ws := getWorkspace()
	defer putWorkspace(ws)
	defer ws.dropLinks()
	if path == nil {
		if err := s.sessionPath(sc, ws); err != nil {
			return err
		}
		path = &ws.path
	}
	res.reset(ws.steps)
	err := s.attempt(ctx, sc, path, opts, ws, res)
	ws.steps = max(ws.steps, len(res.Timeline.steps))
	return err
}

// attempt is unlockAttempt's body.
func (s *System) attempt(ctx context.Context, sc Scenario, path AcousticPath, opts attemptOpts, ws *workspace, res *Result) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	if s.guard.State() == keyguard.StateLockedOut {
		res.Outcome = OutcomeLockedOut
		res.Detail = "keyguard locked out; manual authentication required"
		return nil
	}
	s.now = s.now.Add(time.Second) // sessions are seconds apart at minimum

	phone, watch := s.profiles(sc)
	res.Timeline.Add("wakeup/power-button", StepCompute, phone.Name, _osWakeup)

	// Step 1: wireless link presence — the cheapest filter.
	wl := &ws.radio
	if err := wl.Reset(s.cfg.Transport, sc.Distance, s.rng); err != nil {
		return err
	}
	if sc.Faults != nil {
		wl.Faults = sc.Faults
	}
	if !wl.Connected() {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = fmt.Sprintf("no %s link at %.1f m", s.cfg.Transport, sc.Distance)
		return nil
	}
	// Handshake: start-protocol message out, ack + begin-recording back.
	if err := s.exchange(res, wl, "handshake/start+ack", 64, 2); err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return nil
	}
	res.Timeline.Add("watch/recording-setup", StepCompute, watch.Name, _recordingSetup)

	// Step 2: motion pre-filter (Alg. 1). The watch ships its buffered
	// accelerometer window; the phone runs DTW.
	if s.cfg.EnableMotionFilter {
		if done, err := s.motionFilter(sc, res, wl); err != nil {
			return err
		} else if done {
			return nil
		}
	}

	// Step 3: phase 1 — RTS/CTS channel probing.
	if err := ctx.Err(); err != nil {
		return err
	}
	probeCfg := probeConfig(s.cfg.Band)
	if opts.toneOnly {
		// Tone-ACK rung: OFDM probing is typically what just failed on the
		// earlier rungs, so the desperate rung skips phase 1 — full speaker
		// volume, the band's default pilot layout, and only "tone heard
		// inside the timing window" + the wireless OTP to prove
		// co-presence. Volume planning and range estimation are lost; that
		// is the documented cost of sitting one rung above the PIN.
		res.VolumeSPL = acoustic.PhoneSpeaker().MaxOutputDB
		if err := s.exchange(res, wl, "phase1/cts-config", 128, 2); err != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = err.Error()
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return s.phase2ToneOnly(sc, res, wl, path, probeCfg)
	}
	pa, dataCfg, done, err := s.phase1(sc, res, wl, path, probeCfg, ws)
	if err != nil {
		return err
	}
	if done {
		return nil
	}

	// Step 4: mode selection. The strict MaxBER target is tried first;
	// when body blocking is detected and nothing satisfies it, fall back
	// to the most robust mode under the relaxed NLOS bound (the case
	// study's "relaxing the corresponding required BER of NLOS cases").
	// The relaxation only applies when the time-of-flight estimate puts
	// the transmitter inside the boundary: a hand over the speaker is a
	// close-range phenomenon, and extending the accommodation to distant
	// signals would hand the relaxed bound to a co-located attacker.
	nlosInRange := res.NLOSDetected &&
		res.EstimatedDistance >= 0 && res.EstimatedDistance <= 2*s.cfg.TargetRange
	var mode modem.Modulation
	if opts.forceRobust {
		// Robust rung of the degradation ladder: skip the strict pass and
		// take the most robust mode under the relaxed bound outright.
		mode, err = s.cfg.ModeTable.SelectMostRobust(pa.EbN0dB, s.cfg.NLOSRelaxedMaxBER)
	} else {
		mode, err = s.cfg.ModeTable.SelectMode(pa.EbN0dB, s.cfg.MaxBER)
		if err != nil && nlosInRange {
			mode, err = s.cfg.ModeTable.SelectMostRobust(pa.EbN0dB, s.cfg.NLOSRelaxedMaxBER)
		}
	}
	if err != nil {
		res.Outcome = OutcomeAbortedNoMode
		res.Detail = err.Error()
		return nil
	}
	res.Mode = mode
	dataCfg.Modulation = mode
	// CTS: the watch reports the probing verdict (or the phone pushes the
	// chosen configuration back), one small message each way.
	if err := s.exchange(res, wl, "phase1/cts-config", 128, 2); err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return nil
	}

	// Step 5: phase 2 — OTP transmission and validation. The OTP counter
	// advances inside; checking cancellation here keeps a canceled
	// session from desynchronizing the generator/verifier pair.
	if err := ctx.Err(); err != nil {
		return err
	}
	if opts.toneOnly {
		return s.phase2ToneOnly(sc, res, wl, path, dataCfg)
	}
	return s.phase2(sc, res, wl, path, dataCfg, opts, ws)
}

// exchange sends count control messages over the link, charging timeline
// and radio energy to both devices.
func (s *System) exchange(res *Result, wl *wireless.Link, name string, payload, count int) error {
	for i := 0; i < count; i++ {
		d, err := wl.SendMessage(payload)
		if err != nil {
			return err
		}
		// Time and energy are spent even when the operation runs past the
		// phase timeout — but only up to the timeout, where both devices
		// give up; the overrun itself surfaces as a link error.
		charged, timeoutErr := s.boundPhase(name, d)
		res.Timeline.Add(name, StepComm, "link", charged)
		res.Energy.AddRadio(s.cfg.Phone.Name, s.cfg.Phone.RadioEnergy(charged))
		res.Energy.AddRadio(s.cfg.Watch.Name, s.cfg.Watch.RadioEnergy(charged))
		if timeoutErr != nil {
			return timeoutErr
		}
	}
	return nil
}

// motionFilter runs Alg. 1. It returns done=true when the session ended
// here (abort or skip-unlock).
func (s *System) motionFilter(sc Scenario, res *Result, wl *wireless.Link) (bool, error) {
	const traceLen = 100 // ~2 s at 50 Hz, the paper's 50-150 sample range
	phoneTrace, watchTrace, err := s.motionWS.TracePair(sc.Activity, traceLen, sc.SameBody, s.rng)
	if err != nil {
		return false, err
	}
	// The watch ships its trace (12 bytes per sample serialized).
	d, err := wl.SendMessage(traceLen * 12)
	if err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return true, nil
	}
	res.Timeline.Add("prefilter/sensor-transfer", StepComm, "link", d)
	res.Energy.AddRadio(s.cfg.Watch.Name, s.cfg.Watch.RadioEnergy(d))
	res.Energy.AddRadio(s.cfg.Phone.Name, s.cfg.Phone.RadioEnergy(d))

	fr, err := s.motionWS.Filter(phoneTrace, watchTrace, s.cfg.MotionThresholds)
	if err != nil {
		return false, err
	}
	phone, _ := s.profiles(sc)
	dtwTime := phone.DTWTime(fr.DTWCells)
	res.Timeline.Add("prefilter/dtw", StepCompute, phone.Name, dtwTime)
	res.Energy.AddCompute(phone.Name, phone.ComputeEnergy(dtwTime))
	res.MotionScore = fr.Score
	res.MotionDecision = fr.Decision

	switch fr.Decision {
	case motion.DecisionAbort:
		res.Outcome = OutcomeAbortedMotion
		res.Detail = fmt.Sprintf("DTW score %.3f above threshold %.3f", fr.Score, s.cfg.MotionThresholds.High)
		return true, nil
	case motion.DecisionSkip:
		if err := s.guard.ReportSuccess(s.now); err != nil {
			res.Outcome = OutcomeLockedOut
			res.Detail = err.Error()
			return true, nil
		}
		res.Outcome = OutcomeSkipUnlocked
		res.Unlocked = true
		res.Detail = fmt.Sprintf("DTW score %.4f below skip threshold %.4f", fr.Score, s.cfg.MotionThresholds.Low)
		return true, nil
	default:
		return false, nil
	}
}

// phase1 performs RTS/CTS channel probing: volume planning, probe
// transmission, ambient-noise similarity, NLOS detection, sub-channel
// selection. It returns the probe analysis and the adapted data
// configuration, both valid until ws's next attempt; done=true means the
// session ended here.
func (s *System) phase1(sc Scenario, res *Result, wl *wireless.Link, path AcousticPath, probeCfg modem.Config, ws *workspace) (*modem.ProbeAnalysis, modem.Config, bool, error) {
	phone, watch := s.profiles(sc)

	// Volume planning: drive the speaker so a receiver inside TargetRange
	// clears the minimum usable Eb/N0 over the measured ambient noise —
	// measured inside the occupied band from the phone's self-recording,
	// since only in-band noise competes with the sub-channels. Beyond the
	// boundary the per-bit SNR falls under the adaptive floor and the
	// token becomes undecodable, which is the whole security argument.
	noiseSPL := 10.0
	if sc.Env != nil {
		inBand, ops, err := s.measureAmbient(sc, probeCfg)
		if err != nil {
			return nil, probeCfg, false, err
		}
		noiseSPL = inBand
		measureTime := phone.ComputeTime(modem.Cost{ScalarOps: ops})
		res.Timeline.Add("phase1/noise-measurement", StepCompute, phone.Name, measureTime)
		res.Energy.AddCompute(phone.Name, phone.ComputeEnergy(measureTime))
	}
	minEbN0 := s.cfg.ModeTable.MinEbN0(s.cfg.MaxBER)
	minSNR := minEbN0 - dsp.DB(probeCfg.OccupiedBandwidthHz()/probeCfg.DataRate())
	const planningHeadroomDB = 4 // keep nominal in-range unlocks reliable
	prop := acoustic.DefaultPropagation()
	volume, err := prop.VolumeForRange(s.cfg.TargetRange, noiseSPL, minSNR+planningHeadroomDB)
	if err != nil {
		return nil, probeCfg, false, err
	}
	if max := acoustic.PhoneSpeaker().MaxOutputDB; volume > max {
		volume = max
	}
	res.VolumeSPL = volume

	// Build and play the probe (RTS).
	if err := ws.mod.Reset(probeCfg); err != nil {
		return nil, probeCfg, false, err
	}
	// The probe is one symbol long; its frame is pooled scratch, which the
	// AcousticPath contract forbids Transmit to keep.
	probe := ws.frame(probeCfg.FrameLen(1))
	err = ws.mod.ProbeSymbolInto(probe, &ws.tx)
	if err != nil {
		ws.putFrame()
		return nil, probeCfg, false, err
	}
	rec, err := path.Transmit(probe, volume)
	ws.putFrame()
	if err != nil {
		return nil, probeCfg, false, fmt.Errorf("core: probe transmission: %w", err)
	}
	// AnalyzeProbe is the recording's last reader; nothing it returns
	// aliases the samples.
	defer releaseRecording(path, rec)
	airTime := time.Duration(rec.Duration() * float64(time.Second))
	res.Timeline.Add("phase1/probe-on-air", StepAcoustic, phone.Name, airTime)
	res.Energy.AddCompute(phone.Name, _speakerPowerW*airTime.Seconds())
	res.Energy.AddCompute(watch.Name, _micPowerW*airTime.Seconds())

	// Ambient-noise similarity: the phone self-records while the watch
	// records; compare the noise-only heads (Sound-Proof-style filter).
	if s.cfg.EnableNoiseFilter && sc.Env != nil {
		done, err := s.noiseFilter(sc, res, probeCfg, ws)
		if err != nil || done {
			return nil, probeCfg, done, err
		}
	}

	// Probe analysis runs on the phone when offloading (after a file
	// transfer), otherwise on the watch.
	if err := ws.demod.Reset(probeCfg); err != nil {
		return nil, probeCfg, false, err
	}
	analysisDevice := watch
	if s.cfg.Offload {
		d, err := wl.TransferFile(rec.Len() * 2) // 16-bit PCM
		if err != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = err.Error()
			return nil, probeCfg, true, nil
		}
		charged, timeoutErr := s.boundPhase("phase1/probe-upload", d)
		res.Timeline.Add("phase1/probe-upload", StepComm, "link", charged)
		res.Energy.AddRadio(watch.Name, watch.RadioEnergy(charged))
		res.Energy.AddRadio(phone.Name, phone.RadioEnergy(charged))
		if timeoutErr != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = timeoutErr.Error()
			return nil, probeCfg, true, nil
		}
		analysisDevice = phone
	}
	pa, err := ws.demod.AnalyzeProbeInto(rec, &ws.rx)
	probeTime := analysisDevice.ComputeTime(pa.Cost)
	res.Timeline.Add("phase1/probe-processing", StepCompute, analysisDevice.Name, probeTime)
	res.Energy.AddCompute(analysisDevice.Name, analysisDevice.ComputeEnergy(probeTime))
	if err != nil {
		res.Outcome = OutcomeAbortedNoSignal
		res.Detail = err.Error()
		return nil, probeCfg, true, nil
	}
	// A collapsed channel yields PSNR 0 → Eb/N0 = -Inf from the modem.
	// Result keeps the "unmeasured" zero sentinel instead: non-finite
	// values poison downstream stats and are unrepresentable in JSON
	// (encoding/json refuses NaN/Inf, which would truncate API responses
	// mid-body). Mode selection still sees the raw pa.EbN0dB and aborts.
	if isFinite(pa.PSNRdB) {
		res.PSNRdB = pa.PSNRdB
	}
	if isFinite(pa.EbN0dB) {
		res.EbN0dB = pa.EbN0dB
	}
	res.DelaySpread = time.Duration(pa.RMSDelaySpread * float64(time.Second))
	res.NLOSDetected = modem.IsNLOS(pa.RMSDelaySpread, s.cfg.NLOSThreshold)

	// Distance bounding (extension, Sec. IV-4): the preamble's position
	// past the recording head is the acoustic time of flight. Recording
	// timestamps are good to about a millisecond on Android audio
	// pipelines, so the estimate carries ~0.35 m of slop.
	arrival := pa.Detection.PreambleStart - path.NominalLeadIn()
	if arrival >= 0 {
		tof := float64(arrival) / float64(probeCfg.SampleRate)
		tof += 0.001 * s.rng.NormFloat64() // recording-timestamp jitter
		res.EstimatedDistance = tof * acoustic.SpeedOfSound
		if res.EstimatedDistance < 0 {
			res.EstimatedDistance = 0
		}
	} else {
		res.EstimatedDistance = -1
	}
	if s.cfg.EnableDistanceBounding && res.EstimatedDistance > 2*s.cfg.TargetRange+0.5 {
		res.Outcome = OutcomeAbortedRange
		res.Detail = fmt.Sprintf("acoustic time of flight implies %.1f m, boundary is %.1f m", res.EstimatedDistance, s.cfg.TargetRange)
		return nil, probeCfg, true, nil
	}

	// The paper also aborts when the preamble correlation score is under
	// 0.05 — already enforced inside AnalyzeProbe's detector.

	dataCfg := probeCfg
	if s.cfg.EnableSubChannelSelection {
		ws.candidates = modem.CandidateDataChannelsInto(ws.candidates, probeCfg)
		ws.ranks = modem.RankSubChannelsInto(ws.ranks, ws.candidates, pa.NoisePower, pa.ChannelGain)
		selected, err := modem.SelectDataChannelsInto(ws.selected, ws.ranks, len(probeCfg.DataChannels), 0.25)
		if err == nil {
			ws.selected = selected
			if applied, err := modem.WithDataChannels(probeCfg, selected); err == nil {
				dataCfg = applied
			}
		}
		res.Timeline.Add("phase1/subchannel-selection", StepCompute, analysisDevice.Name, analysisDevice.ComputeTime(modem.Cost{ScalarOps: int64(len(ws.candidates) * 16)}))
	}
	res.DataChannels = append(res.DataChannels[:0], dataCfg.DataChannels...)
	return pa, dataCfg, false, nil
}

// measureAmbient renders the phone's half-second self-recording of the
// room into pooled scratch and returns its in-band noise level.
func (s *System) measureAmbient(sc Scenario, probeCfg modem.Config) (float64, int64, error) {
	ambient := audio.Buffer{Rate: probeCfg.SampleRate, Samples: dsp.GetFloat(probeCfg.SampleRate / 2)}
	defer dsp.PutFloat(ambient.Samples)
	if err := sc.Env.RenderInto(&ambient, s.rng); err != nil {
		return 0, 0, err
	}
	// The phone's own microphone hears any interferer in the room; the
	// volume plan must compete with it.
	if sc.Jammer != nil {
		if err := sc.Jammer.MixInto(&ambient, s.rng); err != nil {
			return 0, 0, err
		}
	}
	// Measure over the pilot span — the same band the probe's pilot SNR
	// estimate will integrate, so planned and measured Eb/N0 agree.
	pilots := probeCfg.SortedPilots()
	lowHz := probeCfg.SubChannelHz(pilots[0])
	highHz := probeCfg.SubChannelHz(pilots[len(pilots)-1])
	return inBandNoiseSPL(&ambient, lowHz, highHz)
}

// noiseFilter compares simultaneous ambient recordings from both devices,
// rendered into pooled scratch.
func (s *System) noiseFilter(sc Scenario, res *Result, probeCfg modem.Config, ws *workspace) (bool, error) {
	phone, _ := s.profiles(sc)
	const ambientSeconds = 0.4
	n := int(ambientSeconds * float64(probeCfg.SampleRate))
	phoneAmb := audio.Buffer{Rate: probeCfg.SampleRate, Samples: dsp.GetFloat(n)}
	defer dsp.PutFloat(phoneAmb.Samples)
	watchAmb := audio.Buffer{Rate: probeCfg.SampleRate, Samples: dsp.GetFloat(n)}
	defer dsp.PutFloat(watchAmb.Samples)
	if err := sc.Env.RenderPairInto(&phoneAmb, &watchAmb, sc.SameRoom, s.rng); err != nil {
		return false, err
	}
	score, ops, err := noiseSimilarity(&phoneAmb, &watchAmb, &ws.noise)
	if err != nil {
		return false, err
	}
	simTime := phone.ComputeTime(modem.Cost{ScalarOps: ops})
	res.Timeline.Add("phase1/noise-similarity", StepCompute, phone.Name, simTime)
	res.Energy.AddCompute(phone.Name, phone.ComputeEnergy(simTime))
	res.NoiseSimilarity = score
	if score < s.cfg.NoiseSimilarityThreshold {
		res.Outcome = OutcomeAbortedNoiseMismatch
		res.Detail = fmt.Sprintf("ambient similarity %.3f below threshold %.3f", score, s.cfg.NoiseSimilarityThreshold)
		return true, nil
	}
	return false, nil
}

// phase2 transmits the OTP token, demodulates (offloaded or local),
// enforces the replay timing window, verifies, and drives the keyguard.
func (s *System) phase2(sc Scenario, res *Result, wl *wireless.Link, path AcousticPath, dataCfg modem.Config, opts attemptOpts, ws *workspace) error {
	phone, watch := s.profiles(sc)

	repetition := s.cfg.Repetition
	if opts.repetition > 0 {
		repetition = opts.repetition
	}
	token, err := s.gen.Next()
	if err != nil {
		return err
	}
	ws.tokenBits = otp.TokenBitsInto(ws.tokenBits, token)
	coded, err := modem.EncodeRepetitionInto(ws.coded, ws.tokenBits, repetition)
	if err != nil {
		return err
	}
	ws.coded = coded
	if err := ws.mod.Reset(dataCfg); err != nil {
		return err
	}
	// The token frame is pooled scratch, like the probe's.
	frame := ws.frame(dataCfg.FrameLen(len(coded)))
	err = ws.mod.ModulateInto(frame, coded, &ws.tx)
	if err != nil {
		ws.putFrame()
		return err
	}
	// Modulation is fast and partially precomputable (Sec. VI); charge
	// the (small) IFFT synthesis cost onto the phone profile.
	res.Timeline.Add("phase2/modulate", StepCompute, phone.Name, phone.ComputeTime(modem.Cost{FFTButterflies: int64(dataCfg.NumSymbols(len(coded))) * 1024, ScalarOps: int64(frame.Len())}))

	rec, err := path.Transmit(frame, res.VolumeSPL)
	ws.putFrame()
	if err != nil {
		return fmt.Errorf("core: token transmission: %w", err)
	}
	// DemodulateInto is the recording's last reader; its result lives in
	// the workspace and leaves nothing in res.
	defer releaseRecording(path, rec)
	airTime := time.Duration(rec.Duration() * float64(time.Second))
	res.Timeline.Add("phase2/token-on-air", StepAcoustic, phone.Name, airTime)
	res.Energy.AddCompute(phone.Name, _speakerPowerW*airTime.Seconds())
	res.Energy.AddCompute(watch.Name, _micPowerW*airTime.Seconds())

	// Stop-recording control message.
	if err := s.exchange(res, wl, "phase2/stop-recording", 64, 1); err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return nil
	}

	// Replay timing window: the phone knows when it started playing and
	// the expected on-air duration; a store-and-forward path inserts
	// latency the Bluetooth-bracketed recording window exposes.
	if extra := path.ExtraLatency(); extra > s.cfg.TimingSlack {
		res.Outcome = OutcomeAbortedTiming
		res.Detail = fmt.Sprintf("acoustic path delayed %.0f ms, window allows %.0f ms", float64(extra.Milliseconds()), float64(s.cfg.TimingSlack.Milliseconds()))
		return nil
	}

	// Demodulation: offloaded to the phone or local on the watch.
	if err := ws.demod.Reset(dataCfg); err != nil {
		return err
	}
	execDevice := watch
	if s.cfg.Offload {
		d, err := wl.TransferFile(rec.Len() * 2)
		if err != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = err.Error()
			return nil
		}
		charged, timeoutErr := s.boundPhase("phase2/recording-upload", d)
		res.Timeline.Add("phase2/recording-upload", StepComm, "link", charged)
		res.Energy.AddRadio(watch.Name, watch.RadioEnergy(charged))
		res.Energy.AddRadio(phone.Name, phone.RadioEnergy(charged))
		if timeoutErr != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = timeoutErr.Error()
			return nil
		}
		execDevice = phone
	}
	rx, err := ws.demod.DemodulateInto(rec, len(coded), &ws.rx)
	// The receive pipeline cost splits into pre-processing (silence gate
	// + preamble search) and demodulation proper (sync, FFT, equalize,
	// de-map) for the Fig. 10 breakdown.
	preTime := execDevice.ComputeTime(rx.DetectCost)
	demodTime := execDevice.ComputeTime(rx.DecodeCost)
	res.Timeline.Add("phase2/pre-processing", StepCompute, execDevice.Name, preTime)
	res.Timeline.Add("phase2/demodulation", StepCompute, execDevice.Name, demodTime)
	res.Energy.AddCompute(execDevice.Name, execDevice.ComputeEnergy(preTime+demodTime))
	if err != nil {
		res.Outcome = OutcomeAbortedNoSignal
		res.Detail = err.Error()
		return nil
	}
	// res.BER is the raw channel BER over the coded stream — what the
	// paper's tables report; majority voting then recovers the token.
	if ber, err := modem.BER(rx.Bits, coded); err == nil {
		res.BER = ber
	}
	decoded, err := modem.DecodeRepetitionInto(ws.decoded, rx.Bits, repetition)
	if err != nil {
		return err
	}
	ws.decoded = decoded
	if !s.cfg.Offload {
		// The watch returns the decoded token over the control channel.
		if err := s.exchange(res, wl, "phase2/token-return", 64, 1); err != nil {
			res.Outcome = OutcomeAbortedLinkDown
			res.Detail = err.Error()
			return nil
		}
	}

	got, err := otp.TokenFromBits(decoded)
	if err != nil {
		res.Outcome = OutcomeTokenMismatch
		res.Detail = err.Error()
		s.guard.ReportFailure()
		return nil
	}
	ok, err := s.ver.Verify(got)
	res.Timeline.Add("phase2/otp-verify", StepCompute, phone.Name, 200*time.Microsecond)
	if err != nil {
		res.Outcome = OutcomeLockedOut
		res.Detail = err.Error()
		return nil
	}
	if !ok {
		s.guard.ReportFailure()
		if s.guard.State() == keyguard.StateLockedOut {
			res.Outcome = OutcomeLockedOut
			res.Detail = "token mismatch; keyguard locked out"
		} else {
			res.Outcome = OutcomeTokenMismatch
			res.Detail = fmt.Sprintf("decoded token %08x failed verification (BER %.3f)", got, res.BER)
		}
		return nil
	}
	if err := s.guard.ReportSuccess(s.now); err != nil {
		res.Outcome = OutcomeLockedOut
		res.Detail = err.Error()
		return nil
	}
	res.Outcome = OutcomeUnlocked
	res.Unlocked = true
	return nil
}

// phase2ToneOnly is the tone-ACK rung of the degradation ladder: instead
// of the OFDM token, the phone plays a single pilot tone — detectable by a
// Goertzel filter at SNRs far below what a data frame needs — and the OTP
// rides the wireless control link. Acoustic co-presence is still proven
// (the tone must be heard, inside the replay timing window), but range
// precision degrades from "token decodable" to "tone audible", which is
// why this rung sits below robust mode and above the PIN on the ladder.
func (s *System) phase2ToneOnly(sc Scenario, res *Result, wl *wireless.Link, path AcousticPath, dataCfg modem.Config) error {
	phone, watch := s.profiles(sc)

	token, err := s.gen.Next()
	if err != nil {
		return err
	}

	// The ACK tone sits on a pilot sub-channel: inside the planned volume
	// budget and the mic's passband.
	pilots := dataCfg.SortedPilots()
	toneHz := dataCfg.SubChannelHz(pilots[len(pilots)/2])
	toneSamples := dataCfg.SampleRate * 3 / 20 // 150 ms
	tone := audio.Buffer{Rate: dataCfg.SampleRate, Samples: dsp.GetFloat(toneSamples)}
	if err := audio.ToneInto(&tone, toneHz, 0.5); err != nil {
		dsp.PutFloat(tone.Samples)
		return err
	}
	rec, err := path.Transmit(&tone, res.VolumeSPL)
	dsp.PutFloat(tone.Samples)
	if err != nil {
		return fmt.Errorf("core: tone transmission: %w", err)
	}
	// GoertzelBatch is the recording's last reader.
	defer releaseRecording(path, rec)
	airTime := time.Duration(rec.Duration() * float64(time.Second))
	res.Timeline.Add("phase2-tone/ack-on-air", StepAcoustic, phone.Name, airTime)
	res.Energy.AddCompute(phone.Name, _speakerPowerW*airTime.Seconds())
	res.Energy.AddCompute(watch.Name, _micPowerW*airTime.Seconds())

	if err := s.exchange(res, wl, "phase2-tone/stop-recording", 64, 1); err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return nil
	}

	// Replay timing window applies to the tone exactly as to the token.
	if extra := path.ExtraLatency(); extra > s.cfg.TimingSlack {
		res.Outcome = OutcomeAbortedTiming
		res.Detail = fmt.Sprintf("acoustic path delayed %.0f ms, window allows %.0f ms", float64(extra.Milliseconds()), float64(s.cfg.TimingSlack.Milliseconds()))
		return nil
	}

	// Goertzel detection on the watch: tone power must clearly beat two
	// off-tone guard frequencies. The batch form walks the recording once
	// for all three bins instead of three times.
	var powers [3]float64
	if err := dsp.GoertzelBatch(powers[:], rec.Samples,
		[]float64{toneHz, toneHz - 450, toneHz + 450}, float64(dataCfg.SampleRate)); err != nil {
		return err
	}
	tonePower := powers[0]
	guardPower := powers[1]
	if powers[2] > guardPower {
		guardPower = powers[2]
	}
	detectTime := watch.ComputeTime(modem.Cost{ScalarOps: int64(rec.Len() * 3)})
	res.Timeline.Add("phase2-tone/goertzel-detect", StepCompute, watch.Name, detectTime)
	res.Energy.AddCompute(watch.Name, watch.ComputeEnergy(detectTime))
	const detectRatio = 4 // ~6 dB over the strongest guard bin
	if guardPower > 0 && tonePower < detectRatio*guardPower {
		res.Outcome = OutcomeAbortedNoSignal
		res.Detail = fmt.Sprintf("ack tone not detected (tone/guard power ratio %.2f)", tonePower/guardPower)
		return nil
	}

	// The OTP rides the control link (two small messages: token out, ack
	// back), still subject to link faults.
	if err := s.exchange(res, wl, "phase2-tone/otp-over-link", 64, 2); err != nil {
		res.Outcome = OutcomeAbortedLinkDown
		res.Detail = err.Error()
		return nil
	}
	ok, err := s.ver.Verify(token)
	res.Timeline.Add("phase2-tone/otp-verify", StepCompute, phone.Name, 200*time.Microsecond)
	if err != nil {
		res.Outcome = OutcomeLockedOut
		res.Detail = err.Error()
		return nil
	}
	if !ok {
		s.guard.ReportFailure()
		res.Outcome = OutcomeTokenMismatch
		res.Detail = "tone-ack token failed verification"
		return nil
	}
	if err := s.guard.ReportSuccess(s.now); err != nil {
		res.Outcome = OutcomeLockedOut
		res.Detail = err.Error()
		return nil
	}
	res.Outcome = OutcomeDegradedUnlocked
	res.Unlocked = true
	res.Detail = fmt.Sprintf("tone-ack rung: %.0f Hz pilot detected, OTP over %s", toneHz, s.cfg.Transport)
	return nil
}

// ManualUnlock models the PIN fallback: clears lockout and resynchronizes
// the OTP counter state.
func (s *System) ManualUnlock() {
	s.now = s.now.Add(time.Second)
	s.guard.ManualAuthenticate(s.now)
	s.ver.Reset(s.gen.Counter())
}
