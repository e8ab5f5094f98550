package modem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wearlock/internal/audio"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.SampleRate != 44100 || cfg.FFTSize != 256 || cfg.CPLen != 128 {
		t.Error("frame geometry differs from Sec. VI")
	}
	if cfg.PreambleLen != 256 || cfg.PostPreambleGuard != 1024 {
		t.Error("preamble geometry differs from Sec. VI")
	}
	wantData := []int{16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30}
	for i, k := range cfg.DataChannels {
		if k != wantData[i] {
			t.Fatalf("data channels %v, want %v", cfg.DataChannels, wantData)
		}
	}
	wantPilots := []int{7, 11, 15, 19, 23, 27, 31, 35}
	for i, k := range cfg.PilotChannels {
		if k != wantPilots[i] {
			t.Fatalf("pilot channels %v, want %v", cfg.PilotChannels, wantPilots)
		}
	}
	// ~172 Hz sub-channel bandwidth.
	if math.Abs(cfg.SubChannelBandwidthHz()-172.27) > 0.1 {
		t.Errorf("sub-channel bandwidth %.2f Hz", cfg.SubChannelBandwidthHz())
	}
	// The near-ultrasound assignment is the same layout shifted up into
	// 15-20 kHz.
	nu := DefaultConfig(BandNearUltrasound, QPSK)
	if err := nu.Validate(); err != nil {
		t.Fatalf("near-ultrasound config invalid: %v", err)
	}
	lowest := nu.SubChannelHz(nu.PilotChannels[0])
	highest := nu.SubChannelHz(nu.PilotChannels[len(nu.PilotChannels)-1])
	if lowest < 14000 || highest > 20500 {
		t.Errorf("near-ultrasound pilots span %.0f-%.0f Hz", lowest, highest)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero rate", func(c *Config) { c.SampleRate = 0 }},
		{"non-pow2 fft", func(c *Config) { c.FFTSize = 100 }},
		{"cp too long", func(c *Config) { c.CPLen = 256 }},
		{"zero preamble", func(c *Config) { c.PreambleLen = 0 }},
		{"negative guard", func(c *Config) { c.SymbolGuard = -1 }},
		{"bad modulation", func(c *Config) { c.Modulation = 0 }},
		{"no data channels", func(c *Config) { c.DataChannels = nil }},
		{"one pilot", func(c *Config) { c.PilotChannels = []int{7} }},
		{"duplicate channel", func(c *Config) { c.DataChannels[0] = c.PilotChannels[0] }},
		{"channel out of range", func(c *Config) { c.DataChannels[0] = 200 }},
		{"unequal pilot spacing", func(c *Config) { c.PilotChannels = []int{7, 11, 16, 19, 23, 27, 31, 35} }},
		{"data outside pilot span", func(c *Config) { c.DataChannels[0] = 5 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig(BandAudible, QPSK)
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation accepted bad config", m.name)
		}
	}
}

func TestNullChannels(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	nulls := cfg.NullChannels()
	used := map[int]bool{}
	for _, k := range cfg.DataChannels {
		used[k] = true
	}
	for _, k := range cfg.PilotChannels {
		used[k] = true
	}
	for _, k := range nulls {
		if used[k] {
			t.Errorf("null channel %d is also assigned", k)
		}
		if k < 7 || k > 35 {
			t.Errorf("null channel %d outside pilot span", k)
		}
	}
	if len(nulls) == 0 {
		t.Error("no null channels for the SNR estimator")
	}
}

func TestDataRateFormula(t *testing.T) {
	// R = |D| * log2(M) / (Ts + Tg) with the paper's defaults.
	cfg := DefaultConfig(BandAudible, PSK8)
	symbolSeconds := float64(128+256+384) / 44100
	want := 12 * 3 / symbolSeconds
	if math.Abs(cfg.DataRate()-want) > 1e-9 {
		t.Errorf("DataRate = %.2f, want %.2f", cfg.DataRate(), want)
	}
	if cfg.NumSymbols(0) != 0 {
		t.Error("NumSymbols(0) != 0")
	}
	if cfg.NumSymbols(37) != 2 { // 36 bits per symbol at 8PSK
		t.Errorf("NumSymbols(37) = %d, want 2", cfg.NumSymbols(37))
	}
	if cfg.FrameLen(36) != 256+1024+768 {
		t.Errorf("FrameLen(36) = %d", cfg.FrameLen(36))
	}
}

// Property: repetition encode/decode is the identity for any bits and any
// odd factor, and majority voting corrects up to (k-1)/2 corrupted copies
// of a single position. The Into forms, given buffers a previous use left
// full of ones, return the same bits.
func TestRepetitionCodecProperty(t *testing.T) {
	dirty := func() []byte { return bytes.Repeat([]byte{1}, 7*64) }
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%64 + 1
		k := []int{1, 3, 5, 7}[kRaw%4]
		bits := RandomBits(n, rng)
		coded, err := EncodeRepetition(bits, k)
		if err != nil {
			return false
		}
		if len(coded) != n*k {
			return false
		}
		if into, err := EncodeRepetitionInto(dirty(), bits, k); err != nil || !bytes.Equal(into, coded) {
			return false
		}
		// Corrupt (k-1)/2 copies of one random position.
		pos := rng.Intn(n)
		for c := 0; c < (k-1)/2; c++ {
			coded[c*n+pos] ^= 1
		}
		decoded, err := DecodeRepetition(coded, k)
		if err != nil {
			return false
		}
		if into, err := DecodeRepetitionInto(dirty(), coded, k); err != nil || !bytes.Equal(into, decoded) {
			return false
		}
		errs, err := BitErrors(decoded, bits)
		return err == nil && errs == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepetitionCodecValidation(t *testing.T) {
	if _, err := EncodeRepetition([]byte{1}, 2); err == nil {
		t.Error("accepted even factor")
	}
	if _, err := EncodeRepetition(nil, 3); err == nil {
		t.Error("accepted empty bits")
	}
	if _, err := DecodeRepetition([]byte{1, 0}, 3); err == nil {
		t.Error("accepted length not multiple of factor")
	}
	if _, err := DecodeRepetition([]byte{2, 0, 0}, 3); err == nil {
		t.Error("accepted invalid bit value")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		bits := BytesToBits(data)
		back, err := BitsToBytes(bits)
		if err != nil || len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := BitsToBytes(make([]byte, 7)); err == nil {
		t.Error("accepted bit count not multiple of 8")
	}
}

func TestBERHelpers(t *testing.T) {
	ber, err := BER([]byte{1, 0, 1, 0}, []byte{1, 1, 1, 1})
	if err != nil || ber != 0.5 {
		t.Errorf("BER = %f, %v", ber, err)
	}
	if _, err := BER([]byte{1}, []byte{1, 0}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := BER(nil, nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestBERCurvePrediction(t *testing.T) {
	curve := &BERCurve{Modulation: QPSK, Points: []BERPoint{
		{10, 0.1}, {20, 0.01}, {30, 0.001},
	}}
	// Clamping at the edges.
	if got := curve.PredictBER(0); got != 0.1 {
		t.Errorf("below-range prediction %f", got)
	}
	if got := curve.PredictBER(50); got != 0.001 {
		t.Errorf("above-range prediction %f", got)
	}
	// Log-domain midpoint: halfway between 0.1 and 0.01 is ~0.0316.
	if got := curve.PredictBER(15); math.Abs(got-0.0316) > 0.002 {
		t.Errorf("midpoint prediction %f, want ~0.0316", got)
	}
	// Inversion: the Eb/N0 where BER hits 0.01 is 20.
	if got := curve.MinEbN0For(0.01); math.Abs(got-20) > 1e-9 {
		t.Errorf("MinEbN0For(0.01) = %f", got)
	}
	if got := curve.MinEbN0For(1e-6); !math.IsInf(got, 1) {
		t.Errorf("unreachable target gave %f", got)
	}
	empty := &BERCurve{Modulation: QPSK}
	if got := empty.PredictBER(20); got != 0.5 {
		t.Errorf("empty curve predicted %f", got)
	}
}

func TestModeTableSelection(t *testing.T) {
	table := DefaultModeTable()
	// The paper's worked example: at 35 dB with MaxBER 0.1, 8PSK is
	// usable; with MaxBER 0.01 fall back to QPSK.
	mode, err := table.SelectMode(35, 0.1)
	if err != nil {
		t.Fatalf("SelectMode: %v", err)
	}
	if mode != PSK8 {
		t.Errorf("mode at 35 dB / 0.1 = %s, want 8PSK", mode)
	}
	mode, err = table.SelectMode(35, 0.01)
	if err != nil {
		t.Fatalf("SelectMode: %v", err)
	}
	if mode != QPSK {
		t.Errorf("mode at 35 dB / 0.01 = %s, want QPSK", mode)
	}
	// Hopeless channel: no mode.
	if _, err := table.SelectMode(-20, 0.1); err == nil {
		t.Error("selected a mode on a hopeless channel")
	}
	var noMode *ErrNoMode
	_, err = table.SelectMode(-20, 0.1)
	if !errorsAs(err, &noMode) {
		t.Errorf("error type %T, want *ErrNoMode", err)
	}
	if _, err := table.SelectMode(35, 0); err == nil {
		t.Error("accepted MaxBER 0")
	}
}

// errorsAs is a minimal errors.As for the test (avoiding the import for
// one call site).
func errorsAs(err error, target **ErrNoMode) bool {
	e, ok := err.(*ErrNoMode)
	if ok {
		*target = e
	}
	return ok
}

func TestSelectMostRobust(t *testing.T) {
	table := DefaultModeTable()
	mode, err := table.SelectMostRobust(14, 0.25)
	if err != nil {
		t.Fatalf("SelectMostRobust: %v", err)
	}
	// At 14 dB, QPSK has the lowest predicted BER of the three modes.
	if mode != QPSK {
		t.Errorf("most robust at 14 dB = %s, want QPSK", mode)
	}
	if _, err := table.SelectMostRobust(-30, 0.25); err == nil {
		t.Error("accepted hopeless channel")
	}
}

func TestModeTableValidation(t *testing.T) {
	if _, err := NewModeTable(nil); err == nil {
		t.Error("accepted empty table")
	}
	if _, err := NewModeTable([]*BERCurve{{Modulation: 0, Points: []BERPoint{{1, 0.1}, {2, 0.01}}}}); err == nil {
		t.Error("accepted invalid modulation")
	}
	if _, err := NewModeTable([]*BERCurve{{Modulation: QPSK, Points: []BERPoint{{1, 0.1}}}}); err == nil {
		t.Error("accepted single-point curve")
	}
	if _, err := NewModeTable([]*BERCurve{{Modulation: QPSK, Points: []BERPoint{{5, 0.1}, {2, 0.01}}}}); err == nil {
		t.Error("accepted unsorted curve")
	}
}

func TestMinEbN0(t *testing.T) {
	table := DefaultModeTable()
	min01 := table.MinEbN0(0.1)
	min001 := table.MinEbN0(0.01)
	if min01 >= min001 {
		t.Errorf("MinEbN0(0.1)=%.1f not below MinEbN0(0.01)=%.1f", min01, min001)
	}
}

func TestSubChannelSelection(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	candidates := CandidateDataChannels(cfg)
	// Candidates exclude pilots and stay strictly inside the pilot span.
	pilotSet := map[int]bool{}
	for _, k := range cfg.PilotChannels {
		pilotSet[k] = true
	}
	for _, k := range candidates {
		if pilotSet[k] {
			t.Errorf("candidate %d is a pilot", k)
		}
		if k <= 7 || k >= 35 {
			t.Errorf("candidate %d outside (7, 35)", k)
		}
	}

	// Rank with two noisy bins: they must fall to the end.
	noise := map[int]float64{}
	for _, k := range candidates {
		noise[k] = 1e-6
	}
	noise[16] = 1e-2
	noise[25] = 1e-2
	ranks := RankSubChannels(candidates, noise, nil)
	lastTwo := map[int]bool{ranks[len(ranks)-1].Bin: true, ranks[len(ranks)-2].Bin: true}
	if !lastTwo[16] || !lastTwo[25] {
		t.Errorf("noisy bins not ranked last: %v", ranks)
	}

	selected, err := SelectDataChannels(ranks, 12, 0)
	if err != nil {
		t.Fatalf("SelectDataChannels: %v", err)
	}
	for _, k := range selected {
		if k == 16 || k == 25 {
			t.Errorf("selected jammed bin %d", k)
		}
	}
	// Selection output is sorted ascending.
	for i := 1; i < len(selected); i++ {
		if selected[i] <= selected[i-1] {
			t.Error("selection not sorted")
		}
	}
	adapted, err := ApplySelection(cfg, selected)
	if err != nil {
		t.Fatalf("ApplySelection: %v", err)
	}
	if err := adapted.Validate(); err != nil {
		t.Fatalf("adapted config invalid: %v", err)
	}

	if _, err := SelectDataChannels(ranks, 0, 0); err == nil {
		t.Error("accepted zero selection size")
	}
	if _, err := SelectDataChannels(ranks, 100, 0); err == nil {
		t.Error("accepted selection larger than candidate pool")
	}
}

// Within a 3 dB noise class, lower frequency wins — the paper's dual
// priority order.
func TestRankPrefersLowFrequencyOnTies(t *testing.T) {
	candidates := []int{30, 10, 20}
	noise := map[int]float64{30: 1.0, 10: 1.1, 20: 0.95} // all within 3 dB
	ranks := RankSubChannels(candidates, noise, nil)
	if ranks[0].Bin != 10 || ranks[1].Bin != 20 || ranks[2].Bin != 30 {
		t.Errorf("tie-break order %v, want ascending frequency", ranks)
	}
}

// Dead bins (gain far below the median) must be skipped even if quiet.
func TestSelectionSkipsDeadBins(t *testing.T) {
	candidates := []int{10, 11, 12, 13}
	noise := map[int]float64{10: 1e-9, 11: 1e-6, 12: 1e-6, 13: 1e-6}
	gain := map[int]float64{10: 0.001, 11: 1, 12: 1, 13: 1}
	ranks := RankSubChannels(candidates, noise, gain)
	selected, err := SelectDataChannels(ranks, 3, 0.25)
	if err != nil {
		t.Fatalf("SelectDataChannels: %v", err)
	}
	for _, k := range selected {
		if k == 10 {
			t.Error("selected dead bin 10")
		}
	}
}

func TestRMSDelaySpreadBasics(t *testing.T) {
	// A single impulse has zero spread.
	profile := make([]float64, 100)
	profile[10] = 1
	if got := RMSDelaySpread(profile, 44100); got != 0 {
		t.Errorf("impulse spread %f", got)
	}
	// Two equal peaks 88 samples (2 ms) apart: spread is half the gap.
	profile[98] = 1
	got := RMSDelaySpread(profile, 44100)
	if math.Abs(got-0.001) > 1e-4 {
		t.Errorf("two-peak spread %f s, want ~0.001", got)
	}
	if RMSDelaySpread(nil, 44100) != 0 || RMSDelaySpread(profile, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	if IsNLOS(0.01, 0) != true || IsNLOS(0.0001, 0) != false {
		t.Error("IsNLOS default threshold wrong")
	}
}

func TestFineSyncRecoversOffset(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	bits := RandomBits(cfg.BitsPerSymbol(), rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	// True CP start inside the frame.
	trueStart := cfg.PreambleLen + cfg.PostPreambleGuard
	for _, offset := range []int{-7, 0, 9} {
		got, score, _ := FineSync(frame.Samples, trueStart-offset, cfg, 16)
		if got != offset {
			t.Errorf("FineSync from %+d error: got %+d (score %.3f)", -offset, got, score)
		}
		if score < 0.9 {
			t.Errorf("clean-signal sync score %.3f", score)
		}
	}
	// Pure noise: no confident sync, offset forced to 0.
	noise := make([]float64, 4096)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if got, _, _ := FineSync(noise, 2048, cfg, 16); got != 0 {
		t.Errorf("noise sync offset %d, want 0", got)
	}
}

func TestEVM(t *testing.T) {
	points, err := QPSK.Map([]byte{0, 0, 1, 1})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	evm, err := EVM(points, QPSK)
	if err != nil || evm != 0 {
		t.Errorf("clean EVM = %f, %v", evm, err)
	}
	points[0] += 0.1
	evm, err = EVM(points, QPSK)
	if err != nil || evm <= 0 {
		t.Errorf("perturbed EVM = %f, %v", evm, err)
	}
	if _, err := EVM(nil, QPSK); err == nil {
		t.Error("accepted empty points")
	}
}

func TestCostAccounting(t *testing.T) {
	var c Cost
	c.Add(Cost{CorrelationMACs: 1, FFTButterflies: 2, FilterMACs: 3, ScalarOps: 4})
	c.Add(Cost{CorrelationMACs: 10})
	if c.Total() != 20 {
		t.Errorf("Total = %d", c.Total())
	}
	if fftCost(256) != 128*8 {
		t.Errorf("fftCost(256) = %d, want 1024", fftCost(256))
	}
	if fftCost(1) != 0 {
		t.Error("fftCost(1) != 0")
	}
	if correlationCost(10, 20) != 0 {
		t.Error("impossible correlation has nonzero cost")
	}
	// The fast path must be cheaper than direct for large inputs.
	if correlationCost(44100, 256) >= int64(44100-256+1)*256 {
		t.Error("large correlation not using the fast-path cost")
	}
}

// Robustness: the demodulator must never panic on arbitrary recordings —
// random noise, constants, tiny buffers, extreme amplitudes — returning
// an error or (garbage) bits instead.
func TestDemodulateNeverPanics(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	demod, err := NewDemodulator(cfg)
	if err != nil {
		t.Fatalf("NewDemodulator: %v", err)
	}
	rng := rand.New(rand.NewSource(77))
	makeBuf := func(n int, fill func(i int) float64) *audio.Buffer {
		b := &audio.Buffer{Rate: cfg.SampleRate, Samples: make([]float64, n)}
		for i := range b.Samples {
			b.Samples[i] = fill(i)
		}
		return b
	}
	cases := []*audio.Buffer{
		makeBuf(0, func(int) float64 { return 0 }),
		makeBuf(10, func(int) float64 { return 0 }),
		makeBuf(cfg.SampleRate/2, func(int) float64 { return 0 }),
		makeBuf(cfg.SampleRate/2, func(int) float64 { return 1 }),
		makeBuf(cfg.SampleRate/2, func(int) float64 { return rng.NormFloat64() }),
		makeBuf(cfg.SampleRate/2, func(int) float64 { return 1e9 * rng.NormFloat64() }),
		makeBuf(cfg.SampleRate/2, func(i int) float64 { return math.Sin(float64(i) / 3) }),
	}
	for i, rec := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d panicked: %v", i, r)
				}
			}()
			_, _ = demod.Demodulate(rec, 32)
			_, _ = demod.AnalyzeProbe(rec)
		}()
	}
}

// Random mid-frame corruption must never panic and never silently loop:
// a frame with a burst of samples zeroed decodes with errors or fails
// cleanly.
func TestDemodulateCorruptedFrames(t *testing.T) {
	cfg := DefaultConfig(BandAudible, QPSK)
	mod, err := NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	demod, err := NewDemodulator(cfg)
	if err != nil {
		t.Fatalf("NewDemodulator: %v", err)
	}
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		bits := RandomBits(96, rng)
		frame, err := mod.Modulate(bits)
		if err != nil {
			t.Fatalf("Modulate: %v", err)
		}
		rec := &audio.Buffer{Rate: cfg.SampleRate, Samples: make([]float64, cfg.SampleRate/10)}
		for i := range rec.Samples {
			rec.Samples[i] = 1e-6 * rng.NormFloat64()
		}
		rec.Samples = append(rec.Samples, frame.Samples...)
		// Zero a random burst.
		burst := rng.Intn(len(rec.Samples) - 500)
		for i := burst; i < burst+500; i++ {
			rec.Samples[i] = 0
		}
		// Truncate randomly sometimes.
		if rng.Intn(2) == 0 {
			rec.Samples = rec.Samples[:len(rec.Samples)-rng.Intn(2000)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			_, _ = demod.Demodulate(rec, 96)
		}()
	}
}
