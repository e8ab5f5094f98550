package modem

import (
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

func TestModulateIntoZeroAllocs(t *testing.T) {
	cfg, mod, _, bits, _ := allocRoundTrip(t, QASK)
	ws := &TxWorkspace{}
	frame, err := audio.NewBuffer(cfg.SampleRate, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the workspace and the frame's sample capacity.
	if err := mod.ModulateInto(frame, bits, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := mod.ModulateInto(frame, bits, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ModulateInto allocated %.1f objects per steady-state frame, want 0", allocs)
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
