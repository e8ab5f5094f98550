package wearlock_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Sec. VI), each delegating to the corresponding
// generator in internal/experiments at quick scale, plus the ablations
// DESIGN.md calls out and microbenchmarks of the DSP hot paths.
//
// Regenerate the full-scale numbers with:
//
//	go run ./cmd/experiments -scale full

import (
	"context"
	"math/rand"
	"testing"

	"wearlock"
	"wearlock/internal/dsp"
	"wearlock/internal/experiments"
	"wearlock/internal/motion"
	"wearlock/internal/scenario/catalog"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := catalog.RunExperiment(name, experiments.Options{Scale: experiments.ScaleQuick, Seed: int64(i) + 1})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// Fig. 4: receiver SPL vs distance per volume setting.
func BenchmarkFig4SPLVsDistance(b *testing.B) { benchExperiment(b, "fig4") }

// Fig. 5: BER vs Eb/N0 for all six modulations.
func BenchmarkFig5BERvsEbN0(b *testing.B) { benchExperiment(b, "fig5") }

// Fig. 6: offloading vs local processing (time and energy).
func BenchmarkFig6Offloading(b *testing.B) { benchExperiment(b, "fig6") }

// Fig. 7: BER vs distance per transmission mode (near-ultrasound).
func BenchmarkFig7RangeBER(b *testing.B) { benchExperiment(b, "fig7") }

// Fig. 8: BER under adaptive modulation per BER constraint.
func BenchmarkFig8Adaptive(b *testing.B) { benchExperiment(b, "fig8") }

// Fig. 9: BER under jamming with/without sub-channel selection.
func BenchmarkFig9Jamming(b *testing.B) { benchExperiment(b, "fig9") }

// Fig. 10: computation delay of each phase on each device.
func BenchmarkFig10ComputeDelay(b *testing.B) { benchExperiment(b, "fig10") }

// Fig. 11: communication delay over Bluetooth and WiFi.
func BenchmarkFig11CommDelay(b *testing.B) { benchExperiment(b, "fig11") }

// Fig. 12: total unlock delay vs manual PIN entry.
func BenchmarkFig12TotalDelay(b *testing.B) { benchExperiment(b, "fig12") }

// Table I: field-test BER across locations, hand positions, and bands.
func BenchmarkTable1FieldTest(b *testing.B) { benchExperiment(b, "table1") }

// Table II: sensor-based filtering DTW scores and cost.
func BenchmarkTable2SensorFilter(b *testing.B) { benchExperiment(b, "table2") }

// Case study: five participants, ten attempts each.
func BenchmarkCaseStudy(b *testing.B) { benchExperiment(b, "casestudy") }

// Ablations over the design choices DESIGN.md calls out.
func BenchmarkAblationFineSync(b *testing.B)     { benchExperiment(b, "ablation-finesync") }
func BenchmarkAblationEqualizer(b *testing.B)    { benchExperiment(b, "ablation-equalizer") }
func BenchmarkAblationMotionFilter(b *testing.B) { benchExperiment(b, "ablation-motionfilter") }

// BenchmarkUnlockSession measures one full protocol session end to end.
func BenchmarkUnlockSession(b *testing.B) {
	cfg := wearlock.DefaultConfig()
	cfg.OTPKey = []byte("bench-key-0123456789abcdef00")
	sys, err := wearlock.NewSystem(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sc := wearlock.DefaultScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome == wearlock.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
}

// Microbenchmarks of the DSP hot paths the offloading cost model is
// built on.

func BenchmarkFFT256(b *testing.B) {
	plan, err := dsp.NewPlan(256)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]complex128, 256)
	for i := range buf {
		buf[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Forward(buf, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreambleCorrelation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	signal := make([]float64, 44100/2)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	template := make([]float64, 256)
	for i := range template {
		template[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.NormalizedCrossCorrelate(signal, template); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModemRoundTrip(b *testing.B) {
	cfg := wearlock.DefaultModemConfig(wearlock.BandAudible, wearlock.QPSK)
	mod, err := wearlock.NewModulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	demod, err := wearlock.NewDemodulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	link, err := wearlock.NewAcousticLink(cfg.SampleRate, 0.15, wearlock.QuietRoom(), rng)
	if err != nil {
		b.Fatal(err)
	}
	bits := wearlock.RandomBits(160, rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := link.Transmit(frame, 72)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demod.Demodulate(rec, len(bits)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTW100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	phone, watch, err := motion.TracePair(motion.Walking, 100, true, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := motion.NormalizedMagnitudeScore(phone, watch); err != nil {
			b.Fatal(err)
		}
	}
}
