package modem

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

func TestModulateFrameLayout(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	bits := RandomBits(cfg.BitsPerSymbol()*3, rng) // exactly 3 symbols
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	if frame.Len() != cfg.FrameLen(len(bits)) {
		t.Fatalf("frame length %d, want %d", frame.Len(), cfg.FrameLen(len(bits)))
	}
	// The preamble occupies the first PreambleLen samples and matches the
	// reference chirp.
	pre := mod.PreambleWaveform()
	for i := 0; i < cfg.PreambleLen; i++ {
		if frame.Samples[i] != pre.Samples[i] {
			t.Fatalf("preamble sample %d differs", i)
		}
	}
	// The post-preamble guard is digital silence.
	for i := cfg.PreambleLen; i < cfg.PreambleLen+cfg.PostPreambleGuard; i++ {
		if frame.Samples[i] != 0 {
			t.Fatalf("guard sample %d is %f, want 0", i, frame.Samples[i])
		}
	}
	// Each symbol guard is digital silence.
	base := cfg.PreambleLen + cfg.PostPreambleGuard
	for s := 0; s < 3; s++ {
		guardStart := base + s*cfg.SymbolLen() + cfg.CPLen + cfg.FFTSize
		for i := guardStart; i < guardStart+cfg.SymbolGuard; i++ {
			if frame.Samples[i] != 0 {
				t.Fatalf("symbol %d guard sample %d nonzero", s, i)
			}
		}
	}
}

// The cyclic prefix must be an exact copy of the symbol tail.
func TestModulateCyclicPrefix(t *testing.T) {
	cfg := DefaultConfig(BandAudible, PSK8)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	bits := RandomBits(cfg.BitsPerSymbol(), rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	cpStart := cfg.PreambleLen + cfg.PostPreambleGuard
	bodyStart := cpStart + cfg.CPLen
	for k := 0; k < cfg.CPLen; k++ {
		cp := frame.Samples[cpStart+k]
		tail := frame.Samples[bodyStart+cfg.FFTSize-cfg.CPLen+k]
		if cp != tail {
			t.Fatalf("CP sample %d (%f) != body tail (%f)", k, cp, tail)
		}
	}
}

// The transmitted symbol body must carry exactly the mapped constellation
// on the data bins and the known pilots on the pilot bins (up to the
// common per-symbol scale).
func TestModulateSpectrumContents(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	bits := RandomBits(cfg.BitsPerSymbol(), rng)
	points, err := cfg.Modulation.Map(bits)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	bodyStart := cfg.PreambleLen + cfg.PostPreambleGuard + cfg.CPLen
	spec := make([]complex128, cfg.FFTSize)
	if err := dsp.RealForward(spec, frame.Samples[bodyStart:bodyStart+cfg.FFTSize]); err != nil {
		t.Fatalf("RealForward: %v", err)
	}
	// Derive the per-symbol scale from the first pilot; taking the real
	// part at TX halves subcarrier amplitudes, which the scale absorbs.
	scale := spec[cfg.PilotChannels[0]] / pilotValue(cfg.PilotChannels[0])
	if cmplx.Abs(scale) == 0 {
		t.Fatal("zero pilot amplitude")
	}
	for i, k := range cfg.DataChannels {
		got := spec[k] / scale
		if cmplx.Abs(got-points[i]) > 1e-6 {
			t.Errorf("data bin %d carries %v, want %v", k, got, points[i])
		}
	}
	for _, k := range cfg.PilotChannels {
		got := spec[k] / scale
		if cmplx.Abs(got-pilotValue(k)) > 1e-6 {
			t.Errorf("pilot bin %d carries %v, want %v", k, got, pilotValue(k))
		}
	}
	// Null bins are empty.
	for _, k := range cfg.NullChannels() {
		if cmplx.Abs(spec[k]/scale) > 1e-6 {
			t.Errorf("null bin %d carries energy %v", k, spec[k]/scale)
		}
	}
}

func TestModulateValidation(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	if _, err := mod.Modulate(nil); err == nil {
		t.Error("accepted empty payload")
	}
	bad := cfg
	bad.FFTSize = 100
	if _, err := NewModulator(bad); err == nil {
		t.Error("accepted invalid config")
	}
	if _, err := NewDemodulator(bad); err == nil {
		t.Error("demodulator accepted invalid config")
	}
}

// The probe symbol must light every data and pilot bin at unit power
// (after scale) so the receiver can measure per-bin channel gain.
func TestProbeSymbolLightsAllBins(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	probe, err := mod.ProbeSymbol()
	if err != nil {
		t.Fatalf("ProbeSymbol: %v", err)
	}
	bodyStart := cfg.PreambleLen + cfg.PostPreambleGuard + cfg.CPLen
	spec := make([]complex128, cfg.FFTSize)
	if err := dsp.RealForward(spec, probe.Samples[bodyStart:bodyStart+cfg.FFTSize]); err != nil {
		t.Fatalf("RealForward: %v", err)
	}
	ref := cmplx.Abs(spec[cfg.PilotChannels[0]])
	if ref == 0 {
		t.Fatal("probe pilot empty")
	}
	for _, k := range append(append([]int(nil), cfg.DataChannels...), cfg.PilotChannels...) {
		if math.Abs(cmplx.Abs(spec[k])-ref)/ref > 1e-6 {
			t.Errorf("probe bin %d amplitude %.6f, want %.6f", k, cmplx.Abs(spec[k]), ref)
		}
	}
}

// Padding: a payload that does not fill the last symbol decodes back with
// zero-padded tail bits.
func TestModulatePadding(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	demod, err := NewDemodulator(cfg)
	if err != nil {
		t.Fatalf("NewDemodulator: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	bits := RandomBits(cfg.BitsPerSymbol()+5, rng) // 1 symbol + 5 bits
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	// Loopback with a silent lead-in.
	padded := make([]float64, cfg.SampleRate/10)
	for i := range padded {
		padded[i] = 1e-7 * rng.NormFloat64()
	}
	all := append(padded, frame.Samples...)
	all = append(all, make([]float64, cfg.SampleRate/50)...)
	rec := &audio.Buffer{Rate: cfg.SampleRate, Samples: all}
	rx, err := demod.Demodulate(rec, len(bits))
	if err != nil {
		t.Fatalf("Demodulate: %v", err)
	}
	if errs, _ := BitErrors(rx.Bits, bits); errs != 0 {
		t.Errorf("padded payload round trip: %d errors", errs)
	}
}
