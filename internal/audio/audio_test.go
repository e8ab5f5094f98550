package audio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wearlock/internal/dsp"
)

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, 10); err == nil {
		t.Error("accepted zero sample rate")
	}
	if _, err := NewBuffer(44100, -1); err == nil {
		t.Error("accepted negative length")
	}
	b, err := NewBuffer(44100, 100)
	if err != nil {
		t.Fatalf("NewBuffer: %v", err)
	}
	if b.Len() != 100 {
		t.Errorf("Len() = %d", b.Len())
	}
	if math.Abs(b.Duration()-100.0/44100) > 1e-12 {
		t.Errorf("Duration() = %f", b.Duration())
	}
}

func TestFromSamplesCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	b, err := FromSamples(8000, src)
	if err != nil {
		t.Fatalf("FromSamples: %v", err)
	}
	src[0] = 99
	if b.Samples[0] != 1 {
		t.Error("buffer shares caller's slice")
	}
}

func TestBufferOps(t *testing.T) {
	b, _ := NewBuffer(8000, 4)
	copy(b.Samples, []float64{1, 2, 3, 4})
	clone := b.Clone()
	clone.Gain(2)
	if b.Samples[0] != 1 || clone.Samples[0] != 2 {
		t.Error("Clone/Gain interact wrongly")
	}
	other, _ := FromSamples(8000, []float64{10, 20})
	if err := b.Append(other); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if b.Len() != 6 || b.Samples[4] != 10 {
		t.Errorf("Append result %v", b.Samples)
	}
	wrongRate, _ := NewBuffer(16000, 2)
	if err := b.Append(wrongRate); err == nil {
		t.Error("accepted rate mismatch")
	}
	b.AppendSilence(2)
	if b.Len() != 8 || b.Samples[7] != 0 {
		t.Error("AppendSilence wrong")
	}
}

func TestMixAt(t *testing.T) {
	base, _ := NewBuffer(8000, 4)
	add, _ := FromSamples(8000, []float64{1, 1, 1})
	if err := base.MixAt(2, add); err != nil {
		t.Fatalf("MixAt: %v", err)
	}
	if base.Len() != 5 { // extended by one sample
		t.Errorf("length after mix = %d, want 5", base.Len())
	}
	if base.Samples[2] != 1 || base.Samples[4] != 1 || base.Samples[1] != 0 {
		t.Errorf("mix content %v", base.Samples)
	}
	// Negative offset clips the head of the added signal.
	base2, _ := NewBuffer(8000, 4)
	if err := base2.MixAt(-2, add); err != nil {
		t.Fatalf("MixAt negative: %v", err)
	}
	if base2.Samples[0] != 1 || base2.Samples[1] != 0 {
		t.Errorf("negative-offset mix %v", base2.Samples)
	}
	// Entirely clipped is a no-op.
	if err := base2.MixAt(-10, add); err != nil {
		t.Fatalf("MixAt fully clipped: %v", err)
	}
	wrongRate, _ := NewBuffer(16000, 2)
	if err := base.MixAt(0, wrongRate); err == nil {
		t.Error("accepted rate mismatch")
	}
}

func TestSlice(t *testing.T) {
	b, _ := FromSamples(8000, []float64{1, 2, 3, 4})
	s, err := b.Slice(1, 3)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if s.Len() != 2 || s.Samples[0] != 2 {
		t.Errorf("slice content %v", s.Samples)
	}
	if _, err := b.Slice(3, 1); err == nil {
		t.Error("accepted inverted range")
	}
	if _, err := b.Slice(0, 10); err == nil {
		t.Error("accepted out-of-range slice")
	}
}

func TestClipAndQuantize(t *testing.T) {
	b, _ := FromSamples(8000, []float64{2, -3, 0.5})
	b.Clip()
	if b.Samples[0] != 1 || b.Samples[1] != -1 || b.Samples[2] != 0.5 {
		t.Errorf("clip result %v", b.Samples)
	}
	if err := b.Quantize(1); err == nil {
		t.Error("accepted bit depth 1")
	}
	if err := b.Quantize(8); err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	// 8-bit grid step is 1/128.
	if math.Abs(b.Samples[2]-0.5) > 1.0/128 {
		t.Errorf("quantized 0.5 -> %f", b.Samples[2])
	}
}

func TestChirpSweep(t *testing.T) {
	cfg := ChirpConfig{StartHz: 1000, EndHz: 6000, Samples: 4096, SampleRate: 44100, FadeLen: 64}
	c, err := Chirp(cfg)
	if err != nil {
		t.Fatalf("Chirp: %v", err)
	}
	if c.Len() != 4096 {
		t.Fatalf("chirp length %d", c.Len())
	}
	// Instantaneous frequency should be low early and high late: compare
	// zero-crossing density in the first vs last quarter.
	crossings := func(x []float64) int {
		n := 0
		for i := 1; i < len(x); i++ {
			if (x[i-1] < 0) != (x[i] < 0) {
				n++
			}
		}
		return n
	}
	early := crossings(c.Samples[:1024])
	late := crossings(c.Samples[3072:])
	if late < early*2 {
		t.Errorf("chirp frequency did not sweep up: %d early vs %d late crossings", early, late)
	}
	// Faded edges.
	if math.Abs(c.Samples[0]) > 1e-9 {
		t.Errorf("chirp start not faded: %f", c.Samples[0])
	}
}

func TestChirpValidation(t *testing.T) {
	base := ChirpConfig{StartHz: 1000, EndHz: 6000, Samples: 256, SampleRate: 44100}
	bad := base
	bad.SampleRate = 0
	if _, err := Chirp(bad); err == nil {
		t.Error("accepted zero sample rate")
	}
	bad = base
	bad.Samples = 0
	if _, err := Chirp(bad); err == nil {
		t.Error("accepted zero length")
	}
	bad = base
	bad.EndHz = 40000
	if _, err := Chirp(bad); err == nil {
		t.Error("accepted end above Nyquist")
	}
	bad = base
	bad.Amplitude = -1
	if _, err := Chirp(bad); err == nil {
		t.Error("accepted negative amplitude")
	}
}

func TestTone(t *testing.T) {
	tone, err := Tone(1000, 0.5, 4410, 44100)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	// RMS of a 0.5-amplitude sine is 0.5/sqrt(2).
	if math.Abs(dsp.RMS(tone.Samples)-0.5/math.Sqrt2) > 0.01 {
		t.Errorf("tone RMS %f", dsp.RMS(tone.Samples))
	}
	if _, err := Tone(30000, 1, 100, 44100); err == nil {
		t.Error("accepted frequency above Nyquist")
	}
}

func TestNoiseKindsUnitRMS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []NoiseKind{NoiseWhite, NoisePink, NoiseBabble, NoiseImpulsive, NoiseHum} {
		buf, err := Noise(kind, 44100/2, 44100, rng)
		if err != nil {
			t.Fatalf("Noise(%s): %v", kind, err)
		}
		if math.Abs(dsp.RMS(buf.Samples)-1) > 1e-9 {
			t.Errorf("%s RMS = %f, want 1", kind, dsp.RMS(buf.Samples))
		}
	}
	if _, err := Noise(NoiseWhite, 100, 44100, nil); err == nil {
		t.Error("accepted nil rng")
	}
	if _, err := Noise(NoiseKind(99), 100, 44100, rng); err == nil {
		t.Error("accepted unknown kind")
	}
}

// Pink noise must concentrate energy at low frequencies relative to white.
func TestPinkNoiseSpectralTilt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bandPower := func(kind NoiseKind, lowBin, highBin int) float64 {
		buf, err := Noise(kind, 8192, 44100, rng)
		if err != nil {
			t.Fatalf("Noise: %v", err)
		}
		spec := make([]complex128, 8192)
		if err := dsp.RealForward(spec, buf.Samples[:8192]); err != nil {
			t.Fatalf("RealForward: %v", err)
		}
		var p float64
		for k := lowBin; k < highBin; k++ {
			p += real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		}
		return p
	}
	lowPink := bandPower(NoisePink, 1, 100)
	highPink := bandPower(NoisePink, 2000, 2100)
	if lowPink < highPink*5 {
		t.Errorf("pink noise not low-heavy: low %.3g vs high %.3g", lowPink, highPink)
	}
}

func TestBabbleNoiseBandLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf, err := Noise(NoiseBabble, 16384, 44100, rng)
	if err != nil {
		t.Fatalf("Noise: %v", err)
	}
	spec := make([]complex128, 16384)
	if err := dsp.RealForward(spec, buf.Samples[:16384]); err != nil {
		t.Fatalf("RealForward: %v", err)
	}
	binHz := 44100.0 / 16384
	var inBand, above float64
	for k := 1; k < 8192; k++ {
		p := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		f := float64(k) * binHz
		switch {
		case f >= 300 && f <= 3400:
			inBand += p
		case f > 6000:
			above += p
		}
	}
	if inBand < above*20 {
		t.Errorf("babble not voice-band limited: in %.3g vs above %.3g", inBand, above)
	}
}

func TestScaleToSPL(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	buf, err := Noise(NoiseWhite, 44100/4, 44100, rng)
	if err != nil {
		t.Fatalf("Noise: %v", err)
	}
	ScaleToSPL(buf, 60)
	if math.Abs(SPL(buf)-60) > 0.01 {
		t.Errorf("SPL after scaling = %f, want 60", SPL(buf))
	}
	silent, _ := NewBuffer(44100, 100)
	ScaleToSPL(silent, 60) // must not divide by zero
}

func TestSPLConversions(t *testing.T) {
	if math.Abs(SPLFromPressure(PressureFromSPL(47))-47) > 1e-9 {
		t.Error("SPL round trip failed")
	}
	if !math.IsInf(SPLFromPressure(0), -1) {
		t.Error("zero pressure should be -inf dB")
	}
	if SNRFromSPL(60, 40) != 20 {
		t.Error("SNRFromSPL wrong")
	}
}

func TestSPLWindowed(t *testing.T) {
	buf, _ := NewBuffer(8000, 1000)
	for i := 500; i < 1000; i++ {
		buf.Samples[i] = 0.1
	}
	levels := SPLWindowed(buf, 250)
	if len(levels) != 4 {
		t.Fatalf("got %d windows", len(levels))
	}
	if levels[3] < levels[0] {
		t.Error("loud window not louder than silent window")
	}
	if SPLWindowed(buf, 0) != nil || SPLWindowed(buf, 2000) != nil {
		t.Error("degenerate windows should return nil")
	}
}

// Property: WAV encode/decode round-trips within 16-bit quantization
// error.
func TestWAVRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		buf, err := NewBuffer(44100, n)
		if err != nil {
			return false
		}
		for i := range buf.Samples {
			buf.Samples[i] = rng.Float64()*2 - 1
		}
		var w bytes.Buffer
		if err := WriteWAV(&w, buf); err != nil {
			return false
		}
		back, err := ReadWAV(&w)
		if err != nil {
			return false
		}
		if back.Rate != buf.Rate || back.Len() != buf.Len() {
			return false
		}
		for i := range buf.Samples {
			if math.Abs(back.Samples[i]-buf.Samples[i]) > 1.0/32000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReadWAVRejectsGarbage(t *testing.T) {
	if _, err := ReadWAV(bytes.NewReader([]byte("not a wav file at all"))); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadWAV(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty stream")
	}
}

func TestWriteWAVValidation(t *testing.T) {
	var w bytes.Buffer
	if err := WriteWAV(&w, nil); err == nil {
		t.Error("accepted nil buffer")
	}
	if err := WriteWAV(&w, &Buffer{Rate: 0}); err == nil {
		t.Error("accepted zero rate")
	}
}

func TestSecondsToSamples(t *testing.T) {
	b, _ := NewBuffer(44100, 0)
	if got := b.SecondsToSamples(0.5); got != 22050 {
		t.Errorf("SecondsToSamples(0.5) = %d", got)
	}
}
