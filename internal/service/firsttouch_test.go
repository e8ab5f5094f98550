package service

import (
	"context"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/otp"
	"wearlock/internal/sim"
	"wearlock/internal/store"
)

// eagerPair is a reference device built the way New once built every
// device up front: the deployment config over the device's counted
// stream.
type eagerPair struct {
	sys *core.System
	src *sim.CountingSource
}

func newEagerPair(t *testing.T, cfg Config, id int) eagerPair {
	t.Helper()
	src := sim.NewCountingSource(sim.SeedFor(cfg.Seed, int64(id)))
	sys, err := core.NewSystem(cfg.Core, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	return eagerPair{sys: sys, src: src}
}

// session runs one default-scenario session as runOnDevice does.
func (p eagerPair) session(t *testing.T, s *Service) {
	t.Helper()
	res, err := p.sys.Unlock(context.Background(), s.scenarios["default"], nil)
	if err != nil {
		t.Fatalf("reference session: %v", err)
	}
	if res.Outcome == core.OutcomeLockedOut {
		p.sys.ManualUnlock()
	}
}

// restore applies a durable record as recovery, warm-up, promotion and
// handoff adoption do.
func (p eagerPair) restore(t *testing.T, ds store.DeviceState) {
	t.Helper()
	if err := p.src.SkipTo(ds.RngDraws); err != nil {
		t.Fatal(err)
	}
	if err := p.sys.RestoreState(toCoreExport(ds), otp.DefaultResyncLookAhead); err != nil {
		t.Fatal(err)
	}
}

// built reports whether a device has had its first touch.
func built(dev *devicePair) bool {
	dev.mu.Lock()
	defer dev.mu.Unlock()
	return dev.sys != nil
}

// wantUnbuilt fails unless exactly the listed devices stay unbuilt.
func wantUnbuilt(t *testing.T, what string, s *Service, unbuilt ...int) {
	t.Helper()
	want := make(map[int]bool, len(unbuilt))
	for _, id := range unbuilt {
		want[id] = true
	}
	for _, dev := range s.devices {
		if built(dev) == want[dev.id] {
			t.Errorf("%s: device %d built = %v, want %v", what, dev.id, built(dev), !want[dev.id])
		}
	}
}

// matchesEager checks a device against its eager reference: the same
// durable export, the same stream position and the same next 1,000
// draws. It consumes both streams.
func matchesEager(t *testing.T, what string, dev *devicePair, ref eagerPair) {
	t.Helper()
	dev.lock()
	defer dev.mu.Unlock()
	if got, want := dev.sys.ExportState(), ref.sys.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: device %d exports %+v, eager reference %+v", what, dev.id, got, want)
	}
	if got, want := dev.src.Draws(), ref.src.Draws(); got != want {
		t.Fatalf("%s: device %d at draw %d, eager reference at %d", what, dev.id, got, want)
	}
	for i := 0; i < 1000; i++ {
		if got, want := dev.src.Uint64(), ref.src.Uint64(); got != want {
			t.Fatalf("%s: device %d draw +%d = %#x, eager reference %#x", what, dev.id, i, got, want)
		}
	}
}

// New builds no device; a session builds exactly its own, into the
// state eager construction reaches, and an untouched device's first
// lock yields the seed-fresh pairing.
func TestFirstTouchSessionMatchesEager(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	wantUnbuilt(t, "after New", s, 0, 1, 2, 3)

	runSessionOn(t, s, 1)
	runSessionOn(t, s, 1)
	wantUnbuilt(t, "after sessions on device 1", s, 0, 2, 3)
	ref := newEagerPair(t, cfg, 1)
	ref.session(t, s)
	ref.session(t, s)
	matchesEager(t, "two sessions", s.devices[1], ref)
	matchesEager(t, "seed-fresh", s.devices[3], newEagerPair(t, cfg, 3))
}

// Recovery builds no device on a clean log: each device the log names
// waits with its record, and its first touch lands it in the state an
// eagerly built device reaches by restoring that record; the rest get
// the seed-fresh pairing at their first session.
func TestDurableFirstTouchRestoreMatchesEager(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s0, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []int{0, 2, 2} {
		runSessionOn(t, s0, dev)
	}
	if err := s0.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s1.Shutdown(context.Background()) }()
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantUnbuilt(t, "after recovery", s1, 0, 1, 2, 3)
	state, _ := s1.StoreState()
	for _, id := range []int{0, 2} {
		ref := newEagerPair(t, cfg, id)
		ref.restore(t, state.Devices[id])
		matchesEager(t, "restored", s1.devices[id], ref)
	}

	runSessionOn(t, s1, 3)
	ref := newEagerPair(t, cfg, 3)
	ref.session(t, s1)
	matchesEager(t, "first session after recovery", s1.devices[3], ref)
}

// A damaged log still builds and re-pairs every device it does not
// name ("absent" no longer proves "never committed") and every device it
// distrusts; a device whose record it still trusts waits for its first
// touch like any other.
func TestDurableFirstTouchDamagedRepairMatchesEager(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		runSessionOn(t, s1, 0)
		runSessionOn(t, s1, 1)
	}
	s1.Kill()
	if applied, err := store.MangleFlipBit(dir, 7); err != nil || !applied {
		t.Fatalf("MangleFlipBit: applied=%v err=%v", applied, err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	if err := s2.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _ := s2.Ready()
	if !rec.Store.Damaged() {
		t.Fatalf("flipped bit not detected: %+v", rec.Store)
	}
	repaired := make(map[int]bool)
	var waiting []int
	for _, id := range rec.Repaired {
		repaired[id] = true
	}
	for _, dev := range s2.devices {
		if !repaired[dev.id] {
			waiting = append(waiting, dev.id)
		}
	}
	wantUnbuilt(t, "after a damaged recovery", s2, waiting...)
	if len(waiting) == 0 {
		t.Fatalf("the flipped bit left no trusted record (repaired %v)", rec.Repaired)
	}
	for _, id := range []int{2, 3} {
		if !repaired[id] {
			t.Fatalf("device %d, absent from a damaged log, not re-paired (repaired %v)", id, rec.Repaired)
		}
		ref := newEagerPair(t, cfg, id)
		if err := ref.sys.Repair(); err != nil {
			t.Fatal(err)
		}
		matchesEager(t, "re-paired", s2.devices[id], ref)
	}
	state, _ := s2.StoreState()
	for _, id := range waiting {
		ref := newEagerPair(t, cfg, id)
		ref.restore(t, state.Devices[id])
		matchesEager(t, "trusted on a damaged log", s2.devices[id], ref)
	}
}

// Replica warm-up and promotion build only the devices the follower's
// durable state names, each into the state eager construction reaches.
func TestReplicaFirstTouchWarmAndPromote(t *testing.T) {
	rp := newReplicaPair(t)
	runSessionOn(t, rp.primary, 1)
	runSessionOn(t, rp.primary, 1)
	wantUnbuilt(t, "warmed follower", rp.follower, 0, 2, 3)
	state, _ := rp.follower.StoreState()
	ref := newEagerPair(t, rp.follower.cfg, 1)
	ref.restore(t, state.Devices[1])
	matchesEager(t, "warmed", rp.follower.devices[1], ref)

	// Direct calls pin each path on an unbuilt device whose durable
	// record the store holds: one session's state of device 2, then of
	// device 3.
	f := rp.follower
	for _, tc := range []struct {
		name string
		id   int
		run  func(id int) error
	}{
		{"replWarmDevices", 2, func(id int) error { f.replWarmDevices([]int{id}); return nil }},
		// Devices 1 and 2 stay out: matchesEager consumed their streams.
		{"promoteReconcile", 3, func(id int) error { return f.promoteReconcile([]int{0, id}) }},
	} {
		src := newEagerPair(t, f.cfg, tc.id)
		src.session(t, f)
		ds := f.exportDevice(&devicePair{id: tc.id, sys: src.sys, src: src.src})
		if err := f.store.CommitDevice(ds); err != nil {
			t.Fatal(err)
		}
		if built(f.devices[tc.id]) {
			t.Fatalf("%s: device %d built before the call", tc.name, tc.id)
		}
		if err := tc.run(tc.id); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ref := newEagerPair(t, f.cfg, tc.id)
		ref.restore(t, ds)
		matchesEager(t, tc.name, f.devices[tc.id], ref)
	}
	wantUnbuilt(t, "after promotion", f, 0)
}

// registerAll registers a lone durable shard as owner of its whole fleet.
func registerAll(t *testing.T, s *Service) {
	t.Helper()
	owned := make([]int, s.cfg.Devices)
	for i := range owned {
		owned[i] = i
	}
	_, code := shardPost[cluster.RegisterResponse](t, s.Handler(), "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: s.shardID(), Epoch: 1, TotalDevices: s.cfg.Devices, Owned: owned},
		cluster.MsgRegisterAck)
	if code != http.StatusOK {
		t.Fatalf("register answered %d", code)
	}
}

// A fenced handoff export commits unbuilt devices in their seed-fresh
// state, and the target's adopt builds them into that same state.
func TestShardFirstTouchHandoffMatchesEager(t *testing.T) {
	src, _ := newLoneShard(t, "s0")
	dst, _ := newLoneShard(t, "s1")
	registerAll(t, src)
	registerAll(t, dst)
	moved := []int{2, 3}

	exp, code := shardPost[cluster.ExportRangeResponse](t, src.Handler(), "/cluster/v1/export-range",
		cluster.MsgExportRange, &cluster.ExportRangeRequest{Epoch: 1, Devices: moved, Fence: true},
		cluster.MsgExportRangeAck)
	if code != http.StatusOK || exp == nil {
		t.Fatalf("export answered %d", code)
	}
	wantUnbuilt(t, "source after the fenced export", src, 0, 1)
	_, code = shardPost[cluster.ImportRangeResponse](t, dst.Handler(), "/cluster/v1/import-range",
		cluster.MsgImportRange, &cluster.ImportRangeRequest{Epoch: 1, Devices: moved, Records: exp.Records, Adopt: true},
		cluster.MsgImportRangeAck)
	if code != http.StatusOK {
		t.Fatalf("import answered %d", code)
	}
	wantUnbuilt(t, "target after the adopt", dst, 0, 1)
	for _, id := range moved {
		matchesEager(t, "exported", src.devices[id], newEagerPair(t, src.cfg, id))
		matchesEager(t, "adopted", dst.devices[id], newEagerPair(t, dst.cfg, id))
	}
}

// raceConfig is a durable shard config whose queue takes every racing
// session of firstTouchRace.
func raceConfig(t *testing.T, sessions int) Config {
	cfg := durableConfig(t.TempDir())
	cfg.ShardID = "s0"
	cfg.Workers, cfg.QueueDepth = 4, 2*sessions
	cfg.RequestTimeout = 2 * time.Minute
	return cfg
}

// firstTouchRace races sessions Submits, a fenced handoff export and
// each of also to first-touch device dev of a registered shard, fails
// unless every path saw one System, and returns how many sessions ran.
func firstTouchRace(t *testing.T, s *Service, dev, sessions int, also ...func()) (ran int) {
	t.Helper()
	var mu sync.Mutex
	seen := make(map[*core.System]bool)
	see := func(d *devicePair) {
		d.lock()
		sys := d.sys
		d.mu.Unlock()
		mu.Lock()
		seen[sys] = true
		mu.Unlock()
	}
	s.unlock = func(ctx context.Context, d *devicePair, sc core.Scenario) (Answer, error) {
		res, err := s.runOnDevice(ctx, d, sc)
		see(d)
		return res, err
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	subs := make(chan *Session, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if sess, err := s.Submit(Request{Device: dev}); err == nil {
				subs <- sess
			}
		}()
	}
	racers := append([]func(){func() {
		runtime.Gosched()
		_, code := shardPost[cluster.ExportRangeResponse](t, s.Handler(), "/cluster/v1/export-range",
			cluster.MsgExportRange, &cluster.ExportRangeRequest{Epoch: 1, Devices: []int{dev}, Fence: true},
			cluster.MsgExportRangeAck)
		if code != http.StatusOK {
			t.Errorf("export answered %d", code)
		}
	}}, also...)
	for _, race := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			race()
			see(s.devices[dev])
		}()
	}
	close(start)
	wg.Wait()
	close(subs)
	for sess := range subs {
		if err := sess.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sess.Err() == nil {
			ran++
		}
	}
	see(s.devices[dev])
	if len(seen) != 1 {
		t.Fatalf("device %d built %d times", dev, len(seen))
	}
	return ran
}

// Sessions and a fenced handoff commit racing to first-touch one device
// build it exactly once: every path sees one System, and the device ends
// where the sessions that ran take an eager reference.
func TestShardFirstTouchConcurrentBuildsOnce(t *testing.T) {
	const dev, sessions = 1, 8
	cfg := raceConfig(t, sessions)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	if err := s.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	registerAll(t, s)
	ran := firstTouchRace(t, s, dev, sessions)
	ref := newEagerPair(t, cfg, dev)
	for i := 0; i < ran; i++ {
		ref.session(t, s)
	}
	matchesEager(t, "after the race", s.devices[dev], ref)
	wantUnbuilt(t, "after the race", s, 0, 2, 3)
}

// Sessions, a fenced handoff export and a replica warm-up racing to
// first-touch one recovered device restore its record exactly once: every
// path sees one System, the record is spent, and the device ends where an
// eager reference lands by restoring the record once and running the
// sessions that ran. (A restore after a session would rewind the stream
// and panic. The warm-up applies the same record, so a build that lost
// it can pass here; TestDurableFirstTouchRestoreMatchesEager catches
// that.)
func TestDurableFirstTouchConcurrentRestoresOnce(t *testing.T) {
	const dev, sessions = 1, 8
	cfg := raceConfig(t, sessions)
	s0, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	runSessionOn(t, s0, dev)
	runSessionOn(t, s0, dev)
	s0.Kill()

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	if err := s.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	registerAll(t, s)
	wantUnbuilt(t, "after recovery", s, 0, 1, 2, 3)
	state, _ := s.StoreState()
	ran := firstTouchRace(t, s, dev, sessions, func() { s.replWarmDevices([]int{dev}) })

	d := s.devices[dev]
	d.lock()
	left := d.recovered
	// A warm-up that lands after a commit re-restores the device's own
	// latest record, which relocks an unlocked keyguard (keyguard.Restore
	// demotes Unlocked): compare lock states through that demotion.
	d.sys.Keyguard().Relock()
	d.mu.Unlock()
	if left != nil {
		t.Fatalf("device %d still holds its recovered record", dev)
	}
	ref := newEagerPair(t, cfg, dev)
	ref.restore(t, state.Devices[dev])
	for i := 0; i < ran; i++ {
		ref.session(t, s)
	}
	ref.sys.Keyguard().Relock()
	matchesEager(t, "after the race", d, ref)
	wantUnbuilt(t, "after the race", s, 0, 2, 3)
}

// A config New accepts always builds, so first touch has no error path:
// New itself refuses an empty (non-nil) pairing key.
func TestNewRefusesEmptyOTPKey(t *testing.T) {
	cfg := testConfig()
	cfg.Core.OTPKey = []byte{}
	if s, err := New(cfg); err == nil {
		_ = s.Shutdown(context.Background())
		t.Fatal("New accepted an empty OTP key")
	}
}

// newAllocBytes is the heap New allocates for a fleet of n devices.
func newAllocBytes(t *testing.T, n int) uint64 {
	t.Helper()
	cfg := testConfig()
	cfg.Devices = n
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Shutdown(context.Background())
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// Set-up stays O(1) in fleet size apart from the pair table: a device
// costs New under 256 B until its first touch.
func TestNewAllocatesLittlePerDevice(t *testing.T) {
	small, large := newAllocBytes(t, 64), newAllocBytes(t, 4096)
	perDevice := float64(int64(large)-int64(small)) / (4096 - 64)
	if perDevice >= 256 {
		t.Fatalf("New allocates %.0f B per device (%d B at 64, %d B at 4096), want < 256", perDevice, small, large)
	}
}

func BenchmarkServiceNew(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run("devices="+strconv.Itoa(n), func(b *testing.B) {
			cfg := testConfig()
			cfg.Devices = n
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = s.Shutdown(context.Background())
				b.StartTimer()
			}
		})
	}
}

// BenchmarkServiceRecover reboots a crash-shaped 64-device directory (a
// snapshot plus a 768-record WAL tail) to WaitReady, with every device
// about 35 k draws into its stream (a few thousand sessions each) and
// 3·10^8 draws in. The devices restore at first touch, outside the
// timed window, so both cost the same.
func BenchmarkServiceRecover(b *testing.B) {
	for _, bc := range []struct {
		name  string
		draws uint64
	}{{"draws=35k", 35_000}, {"draws=3e8", 3e8}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := durableConfig(b.TempDir())
			cfg.Devices = 64
			writeDeviceStreams(b, cfg, cfg.StateDir, 28, func(id int) uint64 { return bc.draws + uint64(id) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.WaitReady(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Kill()
				b.StartTimer()
			}
		})
	}
}
