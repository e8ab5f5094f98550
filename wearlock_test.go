package wearlock_test

import (
	"context"
	"math/rand"
	"testing"

	"wearlock"
)

// The public façade must support the full quickstart flow.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := wearlock.DefaultConfig()
	cfg.OTPKey = []byte("public-api-test-key-000000")
	sys, err := wearlock.NewSystem(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	unlocked := false
	for i := 0; i < 3 && !unlocked; i++ {
		res, err := sys.Unlock(context.Background(), wearlock.DefaultScenario(), nil)
		if err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		unlocked = res.Unlocked
	}
	if !unlocked {
		t.Fatal("nominal scenario never unlocked via public API")
	}
}

// The modem façade round-trips bits through a simulated link.
func TestPublicAPIModemRoundTrip(t *testing.T) {
	cfg := wearlock.DefaultModemConfig(wearlock.BandAudible, wearlock.QPSK)
	mod, err := wearlock.NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	demod, err := wearlock.NewDemodulator(cfg)
	if err != nil {
		t.Fatalf("NewDemodulator: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	link, err := wearlock.NewAcousticLink(cfg.SampleRate, 0.15, wearlock.QuietRoom(), rng)
	if err != nil {
		t.Fatalf("NewAcousticLink: %v", err)
	}
	bits := wearlock.RandomBits(96, rng)
	frame, err := mod.Modulate(bits)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	rec, err := link.Transmit(frame, 72)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	rx, err := demod.Demodulate(rec, len(bits))
	if err != nil {
		t.Fatalf("Demodulate: %v", err)
	}
	ber, err := wearlock.BER(rx.Bits, bits)
	if err != nil {
		t.Fatalf("BER: %v", err)
	}
	if ber > 0.05 {
		t.Errorf("quiet-room BER %.3f via public API", ber)
	}
}

// The HOTP façade generates and verifies RFC 4226 tokens.
func TestPublicAPIHOTP(t *testing.T) {
	key, err := wearlock.NewOTPKey()
	if err != nil {
		t.Fatalf("NewOTPKey: %v", err)
	}
	gen, err := wearlock.NewOTPGenerator(key, 0)
	if err != nil {
		t.Fatalf("NewOTPGenerator: %v", err)
	}
	ver, err := wearlock.NewOTPVerifier(key, 0)
	if err != nil {
		t.Fatalf("NewOTPVerifier: %v", err)
	}
	token, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	ok, err := ver.Verify(token)
	if err != nil || !ok {
		t.Fatalf("Verify: %v, ok=%v", err, ok)
	}
	// The RFC test vector through the façade.
	tok, err := wearlock.HOTPToken([]byte("12345678901234567890"), 0)
	if err != nil {
		t.Fatalf("HOTPToken: %v", err)
	}
	digits, err := wearlock.HOTPDigits(tok, 6)
	if err != nil {
		t.Fatalf("HOTPDigits: %v", err)
	}
	if digits != "755224" {
		t.Errorf("HOTP digits %s, want 755224 (RFC 4226 appendix D)", digits)
	}
}

// Environment presets are all constructible and distinct.
func TestPublicAPIEnvironments(t *testing.T) {
	envs := []*wearlock.Environment{
		wearlock.QuietRoom(), wearlock.Office(), wearlock.Classroom(),
		wearlock.Cafe(), wearlock.GroceryStore(),
	}
	seen := map[string]bool{}
	for _, e := range envs {
		if e == nil || e.Name == "" {
			t.Fatal("nil or unnamed environment")
		}
		if seen[e.Name] {
			t.Errorf("duplicate environment %q", e.Name)
		}
		seen[e.Name] = true
	}
}
