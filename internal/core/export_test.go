package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"wearlock/internal/core"
	"wearlock/internal/keyguard"
	"wearlock/internal/otp"
	"wearlock/internal/sim"
)

func newExportSystem(t *testing.T, seed int64) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Export into a fresh same-seed system must round-trip every durable
// field, and the restored pair must stay token-synchronized.
func TestExportRestoreRoundTrip(t *testing.T) {
	sys := newExportSystem(t, 41)
	// Advance the pair a few tokens so the export is non-trivial.
	gen, ver := sys.OTPCounters()
	if gen != 0 || ver != 0 {
		t.Fatalf("fresh system counters gen=%d ver=%d", gen, ver)
	}
	for i := 0; i < 3; i++ {
		sys.ManualUnlock()
	}
	ex := sys.ExportState()

	restored := newExportSystem(t, 41) // same seed => same derived key
	if err := restored.RestoreState(ex, otp.DefaultResyncLookAhead); err != nil {
		t.Fatal(err)
	}
	ex2 := restored.ExportState()
	if !bytes.Equal(ex.Key, ex2.Key) {
		t.Fatal("restore changed the pairing key")
	}
	if ex2.GenCounter != ex.GenCounter || ex2.VerCounter != ex.VerCounter {
		t.Fatalf("counters did not round-trip: %+v vs %+v", ex, ex2)
	}
	if ex2.GuardState != keyguard.StateUnlocked && ex2.GuardState != keyguard.StateLocked {
		t.Fatalf("guard state did not round-trip: %v", ex2.GuardState)
	}
}

// Restoring onto a system built from a different seed is a re-pair: the
// export's key wins wholesale.
func TestRestoreStateRepairs(t *testing.T) {
	src := newExportSystem(t, 41)
	ex := src.ExportState()

	other := newExportSystem(t, 99)
	before := other.ExportState()
	if bytes.Equal(before.Key, ex.Key) {
		t.Fatal("distinct seeds derived the same key")
	}
	if err := other.RestoreState(ex, otp.DefaultResyncLookAhead); err != nil {
		t.Fatal(err)
	}
	after := other.ExportState()
	if !bytes.Equal(after.Key, ex.Key) {
		t.Fatal("re-pair restore did not adopt the export's key")
	}
}

// Same-key restores are forward-only.
func TestRestoreStateForwardOnly(t *testing.T) {
	sys := newExportSystem(t, 41)
	stale := sys.ExportState()
	for i := 0; i < 2; i++ {
		sys.ManualUnlock() // resyncs ver to gen; advance via ExportState deltas
	}
	// Advance the generator by exporting, bumping, and restoring forward.
	fwd := sys.ExportState()
	fwd.GenCounter += 5
	fwd.VerCounter += 5
	if err := sys.RestoreState(fwd, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreState(stale, 0); err == nil {
		t.Fatal("RestoreState accepted a same-key counter regression")
	}
	if got := sys.ExportState(); got.GenCounter != fwd.GenCounter {
		t.Fatalf("failed restore moved the generator to %d", got.GenCounter)
	}
}

// Repair must mint a fresh key at counter zero so no pre-repair token can
// ever verify again.
func TestRepairInvalidatesOldKey(t *testing.T) {
	sys := newExportSystem(t, 41)
	old := sys.ExportState()
	if err := sys.Repair(); err != nil {
		t.Fatal(err)
	}
	ex := sys.ExportState()
	if bytes.Equal(ex.Key, old.Key) {
		t.Fatal("Repair kept the old pairing key")
	}
	if ex.GenCounter != 0 || ex.VerCounter != 0 {
		t.Fatalf("Repair left counters at gen=%d ver=%d", ex.GenCounter, ex.VerCounter)
	}
	// An old-key token must not verify under the new pairing.
	tok, err := otp.Token(old.Key, old.VerCounter)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := otp.NewVerifier(ex.Key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ver.Verify(tok); ok {
		t.Fatal("old-key token verified after Repair")
	}
}

// CheckRestore refuses exactly the records a freshly paired system
// refuses when its stream is fast-forwarded to the record's draw position
// and the record restored, so recovery can settle every refusal before
// the device is built and a first-touch restore has no error path.
func TestCheckRestoreMatchesRestoreState(t *testing.T) {
	const seed = 41
	fixed := core.DefaultConfig()
	fixed.OTPKey = bytes.Repeat([]byte{7}, otp.KeySize)
	good := newExportSystem(t, seed).ExportState()
	good.GenCounter, good.VerCounter, good.VerFailures = 1e6, 999_990, 2
	other := newExportSystem(t, seed+1).ExportState()
	edit := func(f func(*core.DeviceExport)) core.DeviceExport {
		ex := good
		ex.Key = append([]byte(nil), good.Key...)
		f(&ex)
		return ex
	}
	for _, tc := range []struct {
		name   string
		cfg    core.Config
		ex     core.DeviceExport
		draws  uint64
		refuse bool
	}{
		{"same key", core.DefaultConfig(), good, 35_000, false},
		{"re-pairing key", core.DefaultConfig(), other, 35_000, false},
		{"at the pairing draws", core.DefaultConfig(), good, otp.KeySize, false},
		{"far along the stream", core.DefaultConfig(), good, 3e8, false},
		{"locked out", core.DefaultConfig(), edit(func(ex *core.DeviceExport) {
			ex.VerLockedOut, ex.GuardState, ex.GuardFailures = true, keyguard.StateLockedOut, 5
		}), 35_000, false},
		{"unlocked", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.GuardState = keyguard.StateUnlocked }), 35_000, false},
		{"fixed key at draw zero", fixed, edit(func(ex *core.DeviceExport) { ex.Key = fixed.OTPKey }), 0, false},
		{"short key", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.Key = ex.Key[:1] }), 35_000, false},
		{"nil key", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.Key = nil }), 35_000, true},
		{"empty key", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.Key = []byte{} }), 35_000, true},
		{"unknown guard state", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.GuardState = 99 }), 35_000, true},
		{"negative guard state", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.GuardState = -1 }), 35_000, true},
		{"negative guard failures", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.GuardFailures = -1 }), 35_000, true},
		{"negative verifier failures", core.DefaultConfig(), edit(func(ex *core.DeviceExport) { ex.VerFailures = -1 }), 35_000, true},
		{"draw zero", core.DefaultConfig(), good, 0, true},
		{"inside the pairing draws", core.DefaultConfig(), good, otp.KeySize - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checked := core.CheckRestore(tc.cfg, tc.ex, tc.draws)
			src := sim.NewCountingSource(seed)
			sys, err := core.NewSystem(tc.cfg, rand.New(src))
			if err != nil {
				t.Fatal(err)
			}
			restored := src.SkipTo(tc.draws)
			if restored == nil {
				restored = sys.RestoreState(tc.ex, otp.DefaultResyncLookAhead)
			}
			if (checked != nil) != tc.refuse || (restored != nil) != tc.refuse {
				t.Fatalf("CheckRestore: %v; SkipTo + RestoreState: %v; want refused = %v", checked, restored, tc.refuse)
			}
		})
	}
}
