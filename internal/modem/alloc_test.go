package modem

import (
	"math"
	"math/rand"
	"testing"

	"wearlock/internal/audio"
)

// The zero-allocation contract (ISSUE: steady-state modem frames must not
// touch the allocator): with a warmed workspace, ModulateInto,
// DemodulateInto, and the preamble-search fast path perform no heap
// allocations. These guards use explicit workspaces rather than the shared
// pools because sync.Pool may legitimately miss (and allocate) under GC,
// which would make the assertion flaky.

// allocRoundTrip builds a deterministic loopback recording: silence head
// (so the energy gate has an ambient reference), one modulated frame, and
// a short tail.
func allocRoundTrip(t testing.TB, m Modulation) (cfg Config, mod *Modulator, demod *Demodulator, bits []byte, rec *audio.Buffer) {
	t.Helper()
	cfg = DefaultConfig(BandAudible, m)
	var err error
	mod, err = NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	demod, err = NewDemodulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bits = RandomBits(96, rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = audio.NewBuffer(cfg.SampleRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec.AppendSilence(4096)
	rec.AppendSamples(frame.Samples)
	rec.AppendSilence(1024)
	return cfg, mod, demod, bits, rec
}

// A frame of FrameLen capacity is all ModulateInto needs: it never grows
// one, so a pooled frame of that size is never replaced.
func TestModulateIntoZeroAllocs(t *testing.T) {
	cfg, mod, _, bits, _ := allocRoundTrip(t, QASK)
	ws := &TxWorkspace{}
	if err := mod.ModulateInto(&audio.Buffer{}, bits, ws); err != nil { // warm ws only
		t.Fatal(err)
	}
	frame := &audio.Buffer{Samples: make([]float64, 0, cfg.FrameLen(len(bits)))}
	backing := &frame.Samples[:1][0]
	allocs := testing.AllocsPerRun(50, func() {
		if err := mod.ModulateInto(frame, bits, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ModulateInto allocated %.1f objects per steady-state frame, want 0", allocs)
	}
	if len(frame.Samples) != cfg.FrameLen(len(bits)) || &frame.Samples[0] != backing {
		t.Error("ModulateInto outgrew a FrameLen-capacity frame")
	}
}

func TestDemodulateIntoZeroAllocs(t *testing.T) {
	_, _, demod, bits, rec := allocRoundTrip(t, QASK)
	ws := &RxWorkspace{}
	res, err := demod.DemodulateInto(rec, len(bits), ws)
	if err != nil {
		t.Fatal(err)
	}
	if ber, err := BER(res.Bits, bits); err != nil || ber != 0 {
		t.Fatalf("loopback BER %v (err %v), want 0 — alloc guard needs the success path", ber, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := demod.DemodulateInto(rec, len(bits), ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DemodulateInto allocated %.1f objects per steady-state frame, want 0", allocs)
	}
}

func TestPreambleSearchZeroAllocs(t *testing.T) {
	_, _, demod, _, rec := allocRoundTrip(t, QASK)
	ws := &RxWorkspace{}
	ws.reset()
	ws.ensure(demod.cfg)
	if _, _, err := demod.detectPreambleInto(rec, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := demod.detectPreambleInto(rec, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("preamble search allocated %.1f objects per run, want 0", allocs)
	}
}

// TestDemodulateIntoMatchesDemodulate pins the shim contract: the classic
// allocating API and the workspace API return identical results.
func TestDemodulateIntoMatchesDemodulate(t *testing.T) {
	for _, m := range AllModulations() {
		_, _, demod, bits, rec := allocRoundTrip(t, m)
		want, err := demod.Demodulate(rec, len(bits))
		if err != nil {
			t.Fatalf("%s: Demodulate: %v", m, err)
		}
		ws := &RxWorkspace{}
		got, err := demod.DemodulateInto(rec, len(bits), ws)
		if err != nil {
			t.Fatalf("%s: DemodulateInto: %v", m, err)
		}
		if string(got.Bits) != string(want.Bits) {
			t.Errorf("%s: bits differ between Demodulate and DemodulateInto", m)
		}
		if got.PSNR != want.PSNR || got.PSNRdB != want.PSNRdB || got.EbN0dB != want.EbN0dB {
			t.Errorf("%s: PSNR mismatch: got (%v, %v, %v) want (%v, %v, %v)",
				m, got.PSNR, got.PSNRdB, got.EbN0dB, want.PSNR, want.PSNRdB, want.EbN0dB)
		}
		if *got.Detection != *want.Detection {
			t.Errorf("%s: detection mismatch: got %+v want %+v", m, *got.Detection, *want.Detection)
		}
		if got.Cost != want.Cost || got.DetectCost != want.DetectCost || got.DecodeCost != want.DecodeCost {
			t.Errorf("%s: cost accounting mismatch", m)
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("%s: point %d differs: got %v want %v", m, i, got.Points[i], want.Points[i])
				break
			}
		}
	}
}

// Demodulators of one preamble share its correlator (and so its cached
// spectra); a different band or preamble length gets its own.
func TestDemodulatorsSharePreambleCorrelator(t *testing.T) {
	newDemod := func(cfg Config) *Demodulator {
		t.Helper()
		d, err := NewDemodulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	qask := newDemod(DefaultConfig(BandAudible, QASK))
	if qpsk := newDemod(DefaultConfig(BandAudible, QPSK)); qpsk.corr != qask.corr {
		t.Error("demodulators of the same preamble built separate correlators")
	}
	if ultra := newDemod(DefaultConfig(BandNearUltrasound, QASK)); ultra.corr == qask.corr {
		t.Error("near-ultrasound demodulator reused the audible preamble correlator")
	}
	short := DefaultConfig(BandAudible, QASK)
	short.PreambleLen /= 2
	if d := newDemod(short); d.corr == qask.corr || d.preamble.Len() != short.PreambleLen {
		t.Error("a shorter preamble reused the default-length correlator")
	}
}

func TestProbeSymbolIntoZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := &TxWorkspace{}
	frame := &audio.Buffer{Samples: make([]float64, 0, cfg.FrameLen(1))}
	if err := mod.ProbeSymbolInto(frame, ws); err != nil {
		t.Fatal(err)
	}
	want, err := mod.ProbeSymbol()
	if err != nil {
		t.Fatal(err)
	}
	if frame.Rate != want.Rate || !bitEqual(frame.Samples, want.Samples) {
		t.Fatal("ProbeSymbolInto differs from ProbeSymbol")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := mod.ProbeSymbolInto(frame, ws); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ProbeSymbolInto allocated %.1f objects per run, want 0", allocs)
	}
}

func TestModulatorsSharePreamble(t *testing.T) {
	a, err := NewModulator(DefaultConfig(BandAudible, QPSK))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModulator(DefaultConfig(BandAudible, QASK))
	if err != nil {
		t.Fatal(err)
	}
	if &a.preamble.Samples[0] != &b.preamble.Samples[0] {
		t.Error("modulators of the same preamble synthesized separate waveforms")
	}
	copyA := a.PreambleWaveform()
	if &copyA.Samples[0] == &a.preamble.Samples[0] {
		t.Fatal("PreambleWaveform returned the shared waveform, not a copy")
	}
	copyA.Samples[0] = 42
	if a.preamble.Samples[0] == 42 {
		t.Error("writing the PreambleWaveform copy changed the shared preamble")
	}
	want, err := Preamble(DefaultConfig(BandAudible, QPSK))
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(a.preamble.Samples, want.Samples) {
		t.Error("shared preamble differs from a fresh Preamble synthesis")
	}
}

func TestValidateZeroAllocs(t *testing.T) {
	for _, band := range []Band{BandAudible, BandNearUltrasound} {
		cfg := DefaultConfig(band, QPSK)
		if allocs := testing.AllocsPerRun(50, func() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("band %v: Validate allocated %.1f objects per run, want 0", band, allocs)
		}
	}
}

// The channel checks keep their messages, including for FFT sizes whose
// bitset does not fit on the stack and for unsorted pilot layouts.
func TestValidateChannelMessages(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.DataChannels[0] = c.PilotChannels[0] }, "modem: channel 7 assigned twice"},
		{func(c *Config) { c.PilotChannels[1] = c.PilotChannels[0] }, "modem: channel 7 assigned twice"},
		{func(c *Config) { c.DataChannels[0] = 200 }, "modem: data channel 200 outside [1, 128)"},
		{func(c *Config) { c.PilotChannels[0] = 0 }, "modem: pilot channel 0 outside [1, 128)"},
		{func(c *Config) { c.DataChannels = []int{8}; c.PilotChannels = []int{7, 11, 16, 19, 23, 27, 31, 35} },
			"modem: pilot channels [7 11 16 19 23 27 31 35] are not equally spaced"},
		{func(c *Config) { c.DataChannels = []int{8}; c.PilotChannels = []int{35, 7, 11, 15, 19, 23, 27, 30} },
			"modem: pilot channels [7 11 15 19 23 27 30 35] are not equally spaced"},
		{func(c *Config) { c.DataChannels[0] = 5 }, "modem: data channel 5 outside pilot span [7, 35]"},
		{func(c *Config) { c.FFTSize = 4096; c.DataChannels[1] = 2000; c.DataChannels[2] = 2000 },
			"modem: channel 2000 assigned twice"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(BandAudible, QPSK)
		cfg.DataChannels = append([]int(nil), cfg.DataChannels...)
		cfg.PilotChannels = append([]int(nil), cfg.PilotChannels...)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
	}
	unsorted := DefaultConfig(BandAudible, QPSK)
	unsorted.PilotChannels = append([]int(nil), unsorted.PilotChannels...)
	p := unsorted.PilotChannels
	p[0], p[len(p)-1] = p[len(p)-1], p[0]
	if err := unsorted.Validate(); err != nil {
		t.Errorf("unsorted but equally spaced pilots rejected: %v", err)
	}
}

func bitEqual(a, b []float64) bool {
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
