package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wearlock/internal/sim"
)

func TestDefaultChaosScheduleValidates(t *testing.T) {
	if err := DefaultChaosSchedule().Validate(); err != nil {
		t.Fatalf("builtin schedule invalid: %v", err)
	}
}

func TestRuleValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
	}{
		{"unknown kind", Rule{Kind: "meteor-strike", Prob: 0.5}},
		{"prob above 1", Rule{Kind: KindLinkDrop, Prob: 1.5}},
		{"prob NaN", Rule{Kind: KindLinkDrop, Prob: math.NaN()}},
		{"op_prob negative", Rule{Kind: KindMsgLoss, Prob: 0.5, OpProb: -0.1}},
		{"negative window start", Rule{Kind: KindLinkDrop, Prob: 0.5, From: -1}},
		{"empty window", Rule{Kind: KindLinkDrop, Prob: 0.5, From: 5, To: 5}},
		{"inverted window", Rule{Kind: KindLinkDrop, Prob: 0.5, From: 5, To: 3}},
		{"negative burst duration", Rule{Kind: KindAcousticBurst, Prob: 0.5, BurstMS: -10}},
		{"NaN snr drop", Rule{Kind: KindSNRCollapse, Prob: 0.5, SNRDropDB: math.NaN()}},
		{"infinite extra latency", Rule{Kind: KindLatencySpike, Prob: 0.5, ExtraMS: math.Inf(1)}},
		{"latency mult below 1", Rule{Kind: KindLatencySpike, Prob: 0.5, LatencyMult: 0.5}},
		{"slow factor below 1", Rule{Kind: KindDeviceSlow, Prob: 0.5, SlowFactor: 0.25}},
	}
	for _, tc := range cases {
		if err := tc.rule.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.rule)
		}
	}
}

func TestScheduleValidateRejectsOverlappingWindows(t *testing.T) {
	s := &Schedule{Name: "overlap", Rules: []Rule{
		{Kind: KindLinkDrop, Prob: 0.5, From: 0, To: 10},
		{Kind: KindLinkDrop, Prob: 0.5, From: 5, To: 15},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("overlapping same-kind windows accepted")
	}
	// Different kinds may overlap freely.
	s = &Schedule{Name: "ok", Rules: []Rule{
		{Kind: KindLinkDrop, Prob: 0.5, From: 0, To: 10},
		{Kind: KindMsgLoss, Prob: 0.5, From: 5, To: 15},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("cross-kind overlap rejected: %v", err)
	}
	// An unbounded window (To == 0) blocks any later window of the kind.
	s = &Schedule{Name: "unbounded", Rules: []Rule{
		{Kind: KindLinkDrop, Prob: 0.5, From: 0},
		{Kind: KindLinkDrop, Prob: 0.5, From: 100, To: 200},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("window overlapping an unbounded rule accepted")
	}
}

func TestScaled(t *testing.T) {
	base := DefaultChaosSchedule()
	off, err := base.Scaled(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range off.Rules {
		if r.Prob != 0 {
			t.Fatalf("intensity 0 left %s prob %v", r.Kind, r.Prob)
		}
	}
	// Intensity beyond 1 clamps each probability at 1.
	hot, err := base.Scaled(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hot.Rules {
		if r.Prob != 1 {
			t.Fatalf("intensity 100 left %s prob %v", r.Kind, r.Prob)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.5} {
		if _, err := base.Scaled(bad); err == nil {
			t.Fatalf("Scaled accepted intensity %v", bad)
		}
	}
	// The original is untouched.
	if reflect.DeepEqual(off.Rules, base.Rules) {
		t.Fatal("Scaled(0) aliased the receiver's rules")
	}
}

func TestForSessionDeterminism(t *testing.T) {
	sch := DefaultChaosSchedule()
	const seed = 12345
	for session := int64(0); session < 64; session++ {
		a := ForSession(sch, seed, session)
		b := ForSession(sch, seed, session)
		if !reflect.DeepEqual(a.Armed(), b.Armed()) {
			t.Fatalf("session %d armed differently on replay: %v vs %v", session, a.Armed(), b.Armed())
		}
		// Per-op decision streams replay identically too.
		for op := 0; op < 16; op++ {
			ad, am, ae := a.LinkFault()
			bd, bm, be := b.LinkFault()
			if ad != bd || am != bm || ae != be {
				t.Fatalf("session %d op %d link fault diverged", session, op)
			}
		}
	}
}

func TestForSessionWindows(t *testing.T) {
	sch := &Schedule{Name: "windowed", Rules: []Rule{
		{Kind: KindLinkDrop, Prob: 1, From: 10, To: 20, OpProb: 1},
	}}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		session int64
		armed   bool
	}{{9, false}, {10, true}, {19, true}, {20, false}} {
		sf := ForSession(sch, 1, tc.session)
		if got := sf.armed[KindLinkDrop]; got != tc.armed {
			t.Errorf("session %d: link-drop armed=%v, want %v", tc.session, got, tc.armed)
		}
	}
}

// The msg-* kinds have no consumer, but each in-window rule still takes
// its one arming draw: a later rule arms on the stream's second value,
// not its first, so schedules that list msg-* rules (the builtin one,
// core/testdata/chaos_schedule.json) keep their decision streams.
func TestInertKindsKeepTheirArmingDraw(t *testing.T) {
	sch := &Schedule{Name: "inert-first", Rules: []Rule{
		{Kind: KindMsgLoss, Prob: 0.5},
		{Kind: KindLinkDrop, Prob: 0.5},
	}}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	const seed = 99
	var firstBelow, disagree int
	for session := int64(0); session < 64; session++ {
		rng := rand.New(rand.NewSource(sim.SeedFor(seed, faultSalt, session)))
		first, second := rng.Float64(), rng.Float64()
		if first < 0.5 {
			firstBelow++
		}
		if (first < 0.5) != (second < 0.5) {
			disagree++
		}
		sf := ForSession(sch, seed, session)
		if got := sf.armed[KindMsgLoss]; got != (first < 0.5) {
			t.Errorf("session %d: msg-loss armed=%v, first draw %.3f", session, got, first)
		}
		if got := sf.armed[KindLinkDrop]; got != (second < 0.5) {
			t.Errorf("session %d: link-drop armed=%v, second draw %.3f", session, got, second)
		}
	}
	// The test's own power: msg-loss arms in some sessions and not in
	// others, and a link-drop armed on the first draw would differ.
	if firstBelow == 0 || firstBelow == 64 || disagree == 0 {
		t.Fatalf("degenerate draws: first below 0.5 in %d of 64 sessions, draws disagree in %d", firstBelow, disagree)
	}
}

func TestNilSessionFaultsAreInert(t *testing.T) {
	var sf *SessionFaults
	if sf.Any() || len(sf.Armed()) != 0 {
		t.Fatal("nil faults report armed kinds")
	}
	if drop, mult, extra := sf.LinkFault(); drop || mult != 1 || extra != 0 {
		t.Fatal("nil faults perturb the link")
	}
	if sf.ExtraLossDB() != 0 || sf.BurstInterferer() != nil || sf.ComputeSlowdown() != 1 || sf.PoolExhausted() {
		t.Fatal("nil faults perturb channel/device/admission")
	}
}

func TestCutLinkAfter(t *testing.T) {
	sf := CutLinkAfter(3)
	for i := 0; i < 3; i++ {
		if drop, _, _ := sf.LinkFault(); drop {
			t.Fatalf("op %d dropped before the scripted cut", i)
		}
	}
	for i := 3; i < 6; i++ {
		if drop, _, _ := sf.LinkFault(); !drop {
			t.Fatalf("op %d survived after the scripted cut", i)
		}
	}
	if !sf.Any() {
		t.Fatal("scripted faults report nothing armed")
	}
}

func TestDefaultsAppliedOnArm(t *testing.T) {
	sch := &Schedule{Name: "defaults", Rules: []Rule{
		{Kind: KindLatencySpike, Prob: 1},
		{Kind: KindDeviceSlow, Prob: 1},
		{Kind: KindSNRCollapse, Prob: 1},
	}}
	sf := ForSession(sch, 3, 0)
	if _, mult, _ := sf.LinkFault(); mult != 10 {
		t.Errorf("default latency mult = %v, want 10", mult)
	}
	if f := sf.ComputeSlowdown(); f != 4 {
		t.Errorf("default slow factor = %v, want 4", f)
	}
	if db := sf.ExtraLossDB(); db != 20 {
		t.Errorf("default snr drop = %v, want 20", db)
	}
	if _, _, extra := sf.LinkFault(); extra != time.Duration(0) {
		t.Errorf("unset extra latency = %v, want 0", extra)
	}
}
