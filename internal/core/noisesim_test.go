package core

import (
	"math/rand"
	"testing"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
)

// Co-located recordings must score high similarity; separated ones low —
// the discrimination the Sound-Proof-style filter needs.
func TestNoiseSimilarityDiscriminates(t *testing.T) {
	for _, env := range []*acoustic.Environment{acoustic.Office(), acoustic.Cafe()} {
		rng := rand.New(rand.NewSource(1))
		const n = 44100 / 2
		var coSum, apartSum float64
		const trials = 4
		for i := 0; i < trials; i++ {
			a, b, err := env.RenderPair(n, 44100, true, rng)
			if err != nil {
				t.Fatalf("RenderPair: %v", err)
			}
			co, _, err := NoiseSimilarity(a, b)
			if err != nil {
				t.Fatalf("NoiseSimilarity: %v", err)
			}
			coSum += co
			a, b, err = env.RenderPair(n, 44100, false, rng)
			if err != nil {
				t.Fatalf("RenderPair: %v", err)
			}
			apart, _, err := NoiseSimilarity(a, b)
			if err != nil {
				t.Fatalf("NoiseSimilarity: %v", err)
			}
			apartSum += apart
		}
		co := coSum / trials
		apart := apartSum / trials
		if co < DefaultNoiseSimilarityThreshold {
			t.Errorf("%s: co-located similarity %.3f below threshold %.2f", env.Name, co, DefaultNoiseSimilarityThreshold)
		}
		if apart > DefaultNoiseSimilarityThreshold {
			t.Errorf("%s: separated similarity %.3f above threshold %.2f", env.Name, apart, DefaultNoiseSimilarityThreshold)
		}
	}
}

func TestNoiseSimilarityValidation(t *testing.T) {
	a, _ := audio.NewBuffer(44100, 100)
	b, _ := audio.NewBuffer(22050, 100)
	if _, _, err := NoiseSimilarity(a, b); err == nil {
		t.Error("accepted rate mismatch")
	}
	short, _ := audio.NewBuffer(44100, 100)
	if _, _, err := NoiseSimilarity(short, short); err == nil {
		t.Error("accepted too-short recordings")
	}
}

func TestInBandNoiseSPL(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A pure 3 kHz tone at 60 dB: all its energy is inside 2-4 kHz and
	// none inside 8-10 kHz.
	tone, err := audio.Tone(3000, 1, 44100/2, 44100)
	if err != nil {
		t.Fatalf("Tone: %v", err)
	}
	audio.ScaleToSPL(tone, 60)
	_ = rng
	inBand, _, err := inBandNoiseSPL(tone, 2000, 4000)
	if err != nil {
		t.Fatalf("inBandNoiseSPL: %v", err)
	}
	if inBand < 58 || inBand > 61 {
		t.Errorf("in-band level %.1f dB, want ~60", inBand)
	}
	outBand, _, err := inBandNoiseSPL(tone, 8000, 10000)
	if err != nil {
		t.Fatalf("inBandNoiseSPL: %v", err)
	}
	if outBand > 20 {
		t.Errorf("out-of-band level %.1f dB, want near silence", outBand)
	}
	if _, _, err := inBandNoiseSPL(tone, 4000, 2000); err == nil {
		t.Error("accepted inverted band")
	}
	tiny, _ := audio.NewBuffer(44100, 10)
	if _, _, err := inBandNoiseSPL(tiny, 100, 200); err == nil {
		t.Error("accepted too-short recording")
	}
}

func TestTimelineAccounting(t *testing.T) {
	tl := &Timeline{}
	tl.Add("phase1/a", StepCompute, "phone", 10*time.Millisecond)
	tl.Add("phase1/b", StepComm, "link", 20*time.Millisecond)
	tl.Add("phase2/c", StepAcoustic, "phone", 30*time.Millisecond)
	tl.Add("neg", StepCompute, "phone", -5*time.Millisecond) // clamped to 0
	if tl.Total() != 60*time.Millisecond {
		t.Errorf("Total = %s", tl.Total())
	}
	if tl.TotalKind(StepCompute) != 10*time.Millisecond {
		t.Errorf("TotalKind(compute) = %s", tl.TotalKind(StepCompute))
	}
	if tl.TotalFor("phase1/") != 30*time.Millisecond {
		t.Errorf("TotalFor(phase1/) = %s", tl.TotalFor("phase1/"))
	}
	if len(tl.Steps()) != 4 {
		t.Errorf("Steps() length %d", len(tl.Steps()))
	}
	if tl.String() == "" {
		t.Error("empty render")
	}
}

func TestEnergyLedger(t *testing.T) {
	e := NewEnergyLedger()
	e.AddCompute("watch", 1.5)
	e.AddCompute("watch", 0.5)
	e.AddRadio("watch", 1)
	e.AddRadio("phone", 2)
	if e.Compute("watch") != 2 || e.Radio("watch") != 1 || e.Total("watch") != 3 {
		t.Error("watch accounting wrong")
	}
	if e.Total("phone") != 2 {
		t.Error("phone accounting wrong")
	}
	if e.Total("unknown") != 0 {
		t.Error("unknown device should be 0")
	}
}

func TestOutcomeAndStepStrings(t *testing.T) {
	outcomes := []Outcome{
		OutcomeUnlocked, OutcomeSkipUnlocked, OutcomeAbortedLinkDown,
		OutcomeAbortedMotion, OutcomeAbortedNoiseMismatch, OutcomeAbortedNoSignal,
		OutcomeAbortedNoMode, OutcomeAbortedTiming, OutcomeTokenMismatch, OutcomeLockedOut,
	}
	seen := map[string]bool{}
	for _, o := range outcomes {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("outcome %d has bad/duplicate name %q", int(o), s)
		}
		seen[s] = true
	}
	for _, k := range []StepKind{StepCompute, StepComm, StepAcoustic} {
		if k.String() == "" {
			t.Errorf("step kind %d has no name", int(k))
		}
	}
}
