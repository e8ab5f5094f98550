package modem

import (
	"fmt"
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// BenchCase is one old-vs-new benchmark pair of the DSP fast-path
// regression gate (DESIGN.md §10). Old runs one iteration of the
// pre-workspace pipeline, reconstructed from the retained allocating entry
// points; New runs one iteration of the workspace fast path. Both consume
// the same fixture, so cmd/benchdsp and the BenchmarkModem*/BenchmarkDSP*
// test benchmarks measure identical work.
type BenchCase struct {
	Name string
	// MinSpeedup is the old/new wall-clock ratio the regression gate
	// requires (0 disables the speedup check for this pair).
	MinSpeedup float64
	// RequireZeroAllocNew marks New as a steady-state path that must not
	// allocate.
	RequireZeroAllocNew bool
	Old, New            func() error
}

// BenchCases builds the modem benchmark pairs around deterministic
// loopback fixtures: a 96-bit QASK frame preceded by a silence head, the
// same shape the alloc guards use, and a probe frame under low noise.
func BenchCases() ([]BenchCase, error) {
	cfg := DefaultConfig(BandAudible, QASK)
	mod, err := NewModulator(cfg)
	if err != nil {
		return nil, err
	}
	demod, err := NewDemodulator(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	bits := RandomBits(96, rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		return nil, err
	}
	rec, err := audio.NewBuffer(cfg.SampleRate, 0)
	if err != nil {
		return nil, err
	}
	rec.AppendSilence(4096)
	rec.AppendSamples(frame.Samples)
	rec.AppendSilence(1024)

	txws := &TxWorkspace{}
	txFrame, err := audio.NewBuffer(cfg.SampleRate, 0)
	if err != nil {
		return nil, err
	}
	rxws := &RxWorkspace{}

	// Per-symbol fixture: decode the first data symbol after a fixed
	// detection, isolating the symbol pipeline this PR rewrote (fine sync
	// was already allocation-free and is unchanged, so it is excluded).
	det, _, err := DetectPreamble(rec, demod.preamble, demod.detector)
	if err != nil {
		return nil, err
	}
	base := det.PreambleStart + cfg.PreambleLen + cfg.PostPreambleGuard
	oldPlan, err := dsp.PlanFor(cfg.FFTSize)
	if err != nil {
		return nil, err
	}
	oldBuf := make([]complex128, cfg.FFTSize)
	symRes := &RxResult{}
	symPts := make([]complex128, len(cfg.DataChannels))
	symBits := make([]byte, cfg.BitsPerSymbol())
	symWS := &RxWorkspace{}
	symWS.reset()
	symWS.ensure(cfg)

	probeFrame := &audio.Buffer{Samples: make([]float64, 0, cfg.FrameLen(1))}
	probe, err := mod.ProbeSymbol()
	if err != nil {
		return nil, err
	}
	probeRec, err := audio.NewBuffer(cfg.SampleRate, 0)
	if err != nil {
		return nil, err
	}
	probeRec.AppendSilence(4096)
	probeRec.AppendSamples(probe.Samples)
	probeRec.AppendSilence(1024)
	for i := range probeRec.Samples {
		probeRec.Samples[i] += 1e-3 * rng.NormFloat64()
	}
	probeWS := &RxWorkspace{}

	return []BenchCase{
		{
			Name:                "modem/probe-frame",
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := mod.ProbeSymbol()
				return err
			},
			New: func() error {
				return mod.ProbeSymbolInto(probeFrame, txws)
			},
		},
		{
			Name:                "modem/analyze-probe",
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := demod.AnalyzeProbe(probeRec)
				return err
			},
			New: func() error {
				_, err := demod.AnalyzeProbeInto(probeRec, probeWS)
				return err
			},
		},
		{
			Name:                "modem/modulate-frame",
			MinSpeedup:          1.1,
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := mod.Modulate(bits)
				return err
			},
			New: func() error {
				return mod.ModulateInto(txFrame, bits, txws)
			},
		},
		{
			Name:                "modem/demodulate-frame",
			MinSpeedup:          1.1,
			RequireZeroAllocNew: true,
			Old: func() error {
				return demodulateOldStyle(demod, rec, len(bits))
			},
			New: func() error {
				_, err := demod.DemodulateInto(rec, len(bits), rxws)
				return err
			},
		},
		{
			Name:                "modem/demodulate-per-symbol",
			MinSpeedup:          1.5,
			RequireZeroAllocNew: true,
			Old: func() error {
				bodyStart := base + cfg.CPLen
				for j := 0; j < cfg.FFTSize; j++ {
					oldBuf[j] = complex(rec.Samples[bodyStart+j], 0)
				}
				if err := oldPlan.Forward(oldBuf, oldBuf); err != nil {
					return err
				}
				if _, err := PilotSNR(oldBuf, cfg); err != nil {
					return err
				}
				est, _, err := EstimateChannel(oldBuf, cfg, EqualizeFFTInterp)
				if err != nil {
					return err
				}
				points, _, err := Equalize(oldBuf, est, cfg)
				if err != nil {
					return err
				}
				_, err = cfg.Modulation.Demap(points)
				return err
			},
			New: func() error {
				spectrum, err := demod.symbolSpectrum(symWS.spectrum[:cfg.FFTSize], rec.Samples, base, symRes)
				if err != nil {
					return err
				}
				if _, err := pilotSNRWith(spectrum, cfg.PilotChannels, demod.nulls); err != nil {
					return err
				}
				est, _, err := demod.estimateChannelInto(symWS, spectrum)
				if err != nil {
					return err
				}
				if _, err := equalizeInto(symPts, spectrum, est, cfg.DataChannels); err != nil {
					return err
				}
				return cfg.Modulation.DemapInto(symBits, symPts)
			},
		},
	}, nil
}

// demodulateOldStyle is the seed receive pipeline: per-frame preamble
// search with the package correlator, then per symbol a widened complex
// FFT, allocating channel estimation, equalization, and de-mapping.
func demodulateOldStyle(d *Demodulator, rec *audio.Buffer, numBits int) error {
	det, _, err := DetectPreamble(rec, d.preamble, d.detector)
	if err != nil {
		return err
	}
	cfg := d.cfg
	numSymbols := cfg.NumSymbols(numBits)
	base := det.PreambleStart + cfg.PreambleLen + cfg.PostPreambleGuard
	plan, err := dsp.PlanFor(cfg.FFTSize)
	if err != nil {
		return err
	}
	buf := dsp.GetComplex(cfg.FFTSize)
	defer dsp.PutComplex(buf)
	bits := make([]byte, 0, numSymbols*cfg.BitsPerSymbol())
	drift := 0
	for s := 0; s < numSymbols; s++ {
		cpStart := base + s*cfg.SymbolLen() + drift
		offset, _, _ := FineSync(rec.Samples, cpStart, cfg, d.FineSyncRange)
		cpStart += offset
		drift += offset
		bodyStart := cpStart + cfg.CPLen
		for i := 0; i < cfg.FFTSize; i++ {
			buf[i] = complex(rec.Samples[bodyStart+i], 0)
		}
		if err := plan.Forward(buf, buf); err != nil {
			return err
		}
		if _, err := PilotSNR(buf, cfg); err != nil {
			return err
		}
		est, _, err := EstimateChannel(buf, cfg, EqualizeFFTInterp)
		if err != nil {
			return err
		}
		points, _, err := Equalize(buf, est, cfg)
		if err != nil {
			return err
		}
		symBits, err := cfg.Modulation.Demap(points)
		if err != nil {
			return err
		}
		bits = append(bits, symBits...)
	}
	if len(bits) < numBits {
		return fmt.Errorf("modem: decoded %d bits, need %d", len(bits), numBits)
	}
	return nil
}
