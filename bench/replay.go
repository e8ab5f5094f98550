package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/core"
	"wearlock/internal/modem"
	"wearlock/internal/motion"
	"wearlock/internal/otp"
	"wearlock/internal/sim"
)

// replayer rebuilds one device exactly as service.New builds it and runs
// its sessions serially, in the order the daemon ran them.
type replayer struct {
	cfg core.Config
	src *sim.CountingSource
	rng *rand.Rand
	sys *core.System
}

func newReplayer(cfg core.Config, seed int64, device int) (*replayer, error) {
	src := sim.NewCountingSource(sim.SeedFor(seed, int64(device)))
	rng := rand.New(src)
	sys, err := core.NewSystem(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &replayer{cfg: cfg, src: src, rng: rng, sys: sys}, nil
}

// transmission is one Transmit call the timing path saw.
type transmission struct {
	rec        *audio.Buffer
	start, end time.Time
}

// timedPath is the honest acoustic path with every Transmit timed and its
// recording kept for the shadow calls.
type timedPath struct {
	core.AcousticPath
	sends []transmission
}

// Transmit implements core.AcousticPath.
func (p *timedPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	start := time.Now()
	rec, err := p.AcousticPath.Transmit(frame, volumeSPL)
	p.sends = append(p.sends, transmission{rec: rec, start: start, end: time.Now()})
	return rec, err
}

// replayed is one session run again by the replayer.
type replayed struct {
	obs        *observation
	sc         core.Scenario
	res        *core.Result
	start, end time.Time
	sends      []transmission
	keep       bool // recordings kept for the shadow calls
}

func (r *replayed) sessionMS() float64 { return ms(r.end.Sub(r.start)) }

// run replays one session the way the service's non-resilient path runs
// it: link from the device's own stream, the unlock, and the PIN
// fallback that clears a lockout.
func (r *replayer) run(sc core.Scenario) (*core.Result, []transmission, error) {
	link, err := sc.AcousticLink(r.cfg.Band, sampleRate(r.cfg), r.rng)
	if err != nil {
		return nil, nil, err
	}
	path := &timedPath{AcousticPath: core.NewLinkPath(link)}
	res, err := r.sys.UnlockViaCtx(context.Background(), sc, path)
	if err == nil && res.Outcome == core.OutcomeLockedOut {
		r.sys.ManualUnlock()
	}
	return res, path.sends, err
}

func sampleRate(cfg core.Config) int { return modem.DefaultConfig(cfg.Band, modem.QPSK).SampleRate }

// replayReport is what the serial replay of the sampled devices measured.
type replayReport struct {
	sessions   []*replayed
	finals     map[int]deviceFinal
	allocBytes float64
	allocs     float64
}

// deviceFinal is a replayed device's state after its last session.
type deviceFinal struct {
	export core.DeviceExport
	draws  uint64
}

// replayDevices re-runs every session the client saw succeed on each
// sampled device and requires the replay to reproduce each observed
// outcome, unlocked flag, BER, Eb/N0 and protocol delay exactly. Requests
// the daemon refused never ran and are skipped; a session that ran but
// failed cannot be reproduced and fails the check. Every keepEvery-th
// session (none when 0) keeps its recordings for the shadow calls.
func replayDevices(cfg core.Config, seed int64, scenarios map[string]core.Scenario, devices []int, byDevice map[int][]*observation, keepEvery int, tr *tracer) (*replayReport, error) {
	rep := &replayReport{finals: make(map[int]deviceFinal)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, dev := range devices {
		rp, err := newReplayer(cfg, seed, dev)
		if err != nil {
			return nil, err
		}
		for _, o := range byDevice[dev] {
			if o.status != http.StatusOK {
				continue
			}
			sc, ok := scenarios[o.scenario]
			if !ok {
				return nil, fmt.Errorf("request %d: unknown scenario %q", o.idx, o.scenario)
			}
			s := &replayed{obs: o, sc: sc, start: time.Now()}
			res, sends, err := rp.run(sc)
			s.end, s.res, s.sends = time.Now(), res, sends
			if err != nil {
				return nil, fmt.Errorf("device %d request %d (%s): replay: %w", dev, o.idx, o.scenario, err)
			}
			if err := matches(o.view, res); err != nil {
				return nil, fmt.Errorf("device %d request %d (%s): %w", dev, o.idx, o.scenario, err)
			}
			s.keep = keepEvery > 0 && len(rep.sessions)%keepEvery == 0
			if !s.keep {
				for i := range s.sends {
					s.sends[i].rec = nil
				}
			}
			rep.sessions = append(rep.sessions, s)
			if tr != nil {
				id := tr.add(o.idx, 0, "core.unlock", s.start, s.end)
				for _, t := range sends {
					tr.add(o.idx, id, "acoustic.transmit", t.start, t.end)
				}
			}
		}
		rep.finals[dev] = deviceFinal{export: rp.sys.ExportState(), draws: rp.src.Draws()}
	}
	runtime.ReadMemStats(&after)
	if n := float64(len(rep.sessions)); n > 0 {
		rep.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / n
		rep.allocs = float64(after.Mallocs-before.Mallocs) / n
	}
	return rep, nil
}

// matches compares the fields of an observed session view with the
// replayed result, rendered as service.Session.Snapshot renders it.
func matches(v view, res *core.Result) error {
	if v.State != "done" {
		return fmt.Errorf("session ended %q (%s); a failed session cannot be replayed", v.State, v.Error)
	}
	want := struct {
		outcome   string
		unlocked  bool
		ber, ebn0 float64
		delayMS   float64
	}{
		res.Outcome.String(), res.Unlocked,
		finiteOr(res.BER, -1), finiteOr(res.EbN0dB, 0),
		float64(res.Timeline.Total().Microseconds()) / 1000,
	}
	switch {
	case v.Outcome != want.outcome:
		return fmt.Errorf("outcome %q, replay %q", v.Outcome, want.outcome)
	case v.Unlocked != want.unlocked:
		return fmt.Errorf("unlocked %v, replay %v", v.Unlocked, want.unlocked)
	case v.BER != want.ber:
		return fmt.Errorf("ber %v, replay %v", v.BER, want.ber)
	case v.EbN0dB != want.ebn0:
		return fmt.Errorf("ebn0_db %v, replay %v", v.EbN0dB, want.ebn0)
	case v.UnlockDelayMS != want.delayMS:
		return fmt.Errorf("unlock_delay_ms %v, replay %v", v.UnlockDelayMS, want.delayMS)
	}
	return nil
}

func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// shadowTimes holds each layer function's shadow-call durations (ms),
// keyed by the layer's metric-name prefix.
type shadowTimes map[string][]float64

// shadow runs each layer's public function again on the inputs session s
// used, on a separate random stream so the device streams stay
// untouched: ambient rendering and the noise-similarity filter on the
// scenario's environment, the motion filter on a trace pair of the
// scenario's activity, and the modem on the session's captured probe and
// data recordings. Sessions that aborted before audio have none, so their
// recordings are made through a link of the scenario on the shadow
// stream. It returns the shadow time of the layers the session itself
// ran, as its Timeline shows them, for core.accounted_frac.
func shadow(cfg core.Config, s *replayed, rng *rand.Rand, times shadowTimes, tr *tracer, parent int64) (time.Duration, error) {
	var accounted time.Duration
	ran := func(step string) bool { return s.res.Timeline.TotalFor(step) > 0 }
	timed := func(layer string, didRun bool, f func() error) error {
		start := time.Now()
		err := f()
		end := time.Now()
		times[layer] = append(times[layer], ms(end.Sub(start)))
		tr.add(s.obs.idx, parent, "shadow."+layer, start, end)
		if didRun {
			accounted += end.Sub(start)
		}
		return err
	}
	sr := sampleRate(cfg)
	if env := s.sc.Env; env != nil {
		if err := timed("acoustic.render", ran("phase1/noise-measurement"), func() error {
			_, err := env.Render(sr/2, sr, rng)
			return err
		}); err != nil {
			return 0, err
		}
		var phone, watch *audio.Buffer
		if err := timed("acoustic.render_pair", ran("phase1/noise-similarity"), func() (err error) {
			phone, watch, err = env.RenderPair(int(0.4*float64(sr)), sr, s.sc.SameRoom, rng)
			return err
		}); err != nil {
			return 0, err
		}
		if err := timed("core.noise_similarity", ran("phase1/noise-similarity"), func() error {
			_, _, err := core.NoiseSimilarity(phone, watch)
			return err
		}); err != nil {
			return 0, err
		}
	}
	ptrace, wtrace, err := motion.TracePair(s.sc.Activity, 100, s.sc.SameBody, rng)
	if err != nil {
		return 0, err
	}
	if err := timed("motion.filter", ran("prefilter/dtw"), func() error {
		_, err := motion.Filter(ptrace, wtrace, cfg.MotionThresholds)
		return err
	}); err != nil {
		return 0, err
	}

	probeCfg := modem.DefaultConfig(cfg.Band, modem.QPSK)
	dataCfg := probeCfg
	if s.res.Mode != 0 {
		if dataCfg, err = modem.ApplySelection(modem.DefaultConfig(cfg.Band, s.res.Mode), s.res.DataChannels); err != nil {
			return 0, err
		}
	}
	volume := s.res.VolumeSPL
	if volume == 0 {
		volume = acoustic.PhoneSpeaker().MaxOutputDB
	}
	var link *acoustic.Link
	record := func(i int, frame func() (*audio.Buffer, error)) (*audio.Buffer, error) {
		if i < len(s.sends) && s.sends[i].rec != nil {
			return s.sends[i].rec, nil
		}
		if link == nil {
			l, err := s.sc.AcousticLink(cfg.Band, sr, rng)
			if err != nil {
				return nil, err
			}
			link = l
		}
		f, err := frame()
		if err != nil {
			return nil, err
		}
		return link.Transmit(f, volume)
	}

	probeRec, err := record(0, func() (*audio.Buffer, error) {
		m, err := modem.NewModulator(probeCfg)
		if err != nil {
			return nil, err
		}
		return m.ProbeSymbol()
	})
	if err != nil {
		return 0, err
	}
	analyzer, err := modem.NewDemodulator(probeCfg)
	if err != nil {
		return 0, err
	}
	var pa *modem.ProbeAnalysis
	// A recording without a usable preamble is a valid input whose
	// analysis fails; only the time matters for those.
	_ = timed("modem.analyze_probe", ran("phase1/probe-processing"), func() (err error) {
		pa, err = analyzer.AnalyzeProbe(probeRec)
		return err
	})
	if len(s.sends) > 0 && ran("phase1/probe-processing") && pa != nil && s.res.EbN0dB != 0 &&
		finiteOr(pa.EbN0dB, 0) != s.res.EbN0dB {
		return 0, fmt.Errorf("request %d: shadow probe analysis gives Eb/N0 %v, the session measured %v",
			s.obs.idx, pa.EbN0dB, s.res.EbN0dB)
	}

	coded := make([]byte, len(otp.TokenBits(0))*cfg.Repetition)
	for i := range coded {
		coded[i] = byte(rng.Intn(2))
	}
	modulator, err := modem.NewModulator(dataCfg)
	if err != nil {
		return 0, err
	}
	var frame *audio.Buffer
	if err := timed("modem.modulate", ran("phase2/modulate"), func() (err error) {
		frame, err = modulator.Modulate(coded)
		return err
	}); err != nil {
		return 0, err
	}
	dataRec, err := record(1, func() (*audio.Buffer, error) { return frame, nil })
	if err != nil {
		return 0, err
	}
	demod, err := modem.NewDemodulator(dataCfg)
	if err != nil {
		return 0, err
	}
	_ = timed("modem.demodulate", ran("phase2/pre-processing"), func() error {
		_, err := demod.Demodulate(dataRec, len(coded))
		return err
	})
	for _, t := range s.sends {
		accounted += t.end.Sub(t.start)
	}
	return accounted, nil
}
