package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearlock/internal/invariant"
	"wearlock/internal/sim"
	"wearlock/internal/store"
)

// durableConfig is testConfig plus a state directory. NoFsync keeps the
// suite fast; kill -9 durability of the fsync path is covered by the
// store package's subprocess test.
func durableConfig(dir string) Config {
	cfg := testConfig()
	cfg.StateDir = dir
	cfg.NoFsync = true
	return cfg
}

// runSessionOn submits one session pinned to a device and waits for it.
func runSessionOn(t *testing.T, s *Service, dev int) *Session {
	t.Helper()
	sess, err := s.Submit(Request{Device: dev})
	if err != nil {
		t.Fatalf("Submit device %d: %v", dev, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Wait(ctx); err != nil {
		t.Fatalf("session on device %d never finished: %v", dev, err)
	}
	return sess
}

// Graceful restart: a daemon that drained and sealed its WAL hands its
// successor every counter, the same pairing keys, and a clean recovery
// report; the successor keeps serving on the restored state.
func TestDurableGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)

	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	for round := 0; round < 2; round++ {
		for dev := 0; dev < cfg.Devices; dev++ {
			runSessionOn(t, s1, dev)
		}
	}
	before, ok := s1.StoreState()
	if !ok {
		t.Fatal("no store state on a durable daemon")
	}
	if len(before.Devices) != cfg.Devices {
		t.Fatalf("persisted %d devices, want %d", len(before.Devices), cfg.Devices)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	if err := s2.WaitReady(context.Background()); err != nil {
		t.Fatalf("restart WaitReady: %v", err)
	}
	rec, ready := s2.Ready()
	if !ready || !rec.Enabled {
		t.Fatalf("recovery report missing: ready=%v enabled=%v", ready, rec.Enabled)
	}
	// Graceful drain seals the active segment (fsynced checkpoint footer
	// + roll) instead of compacting, so the successor fast-forwards from
	// the checkpoint: every replayed record is skipped as already folded,
	// and the directory holds the sealed segment plus the fresh one.
	if rec.Store.Segments < 2 {
		t.Errorf("graceful shutdown should have sealed and rolled the WAL, found %d segments", rec.Store.Segments)
	}
	if rec.Store.Corruptions != 0 || len(rec.Repaired) != 0 {
		t.Fatalf("clean restart reported damage: %+v", rec)
	}
	after, _ := s2.StoreState()
	if err := invariant.Check(invariant.Event{Before: before, After: after}).Err(); err != nil {
		t.Fatalf("across clean restart: %v", err)
	}
	// The restored fleet keeps serving, and its new sessions commit.
	for dev := 0; dev < cfg.Devices; dev++ {
		sess := runSessionOn(t, s2, dev)
		if sess.Err() != nil {
			t.Fatalf("post-restart session on device %d failed: %v", dev, sess.Err())
		}
	}
	if got := s2.store.AppendedRecords(); got == 0 {
		t.Error("post-restart sessions appended no WAL records")
	}
	final, _ := s2.StoreState()
	for dev := 0; dev < cfg.Devices; dev++ {
		if final.Devices[dev].GenCounter <= after.Devices[dev].GenCounter {
			t.Errorf("device %d counter did not advance after restart sessions", dev)
		}
	}
}

// Bit rot between kill and restart: the successor detects the corruption,
// re-pairs exactly the devices whose durable history can no longer be
// trusted (fresh key, counter zero — old tokens cannot replay), keeps
// every other device's counters monotone, and serves the whole fleet.
func TestRestartAfterCorruptionRepairsDistrusted(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)

	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	for round := 0; round < 3; round++ {
		for dev := 0; dev < cfg.Devices; dev++ {
			runSessionOn(t, s1, dev)
		}
	}
	before, _ := s1.StoreState()
	s1.Kill() // no compaction: the WAL is the only durable copy

	applied, err := store.MangleFlipBit(dir, 7)
	if err != nil || !applied {
		t.Fatalf("MangleFlipBit: applied=%v err=%v", applied, err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	if err := s2.WaitReady(context.Background()); err != nil {
		t.Fatalf("restart WaitReady: %v", err)
	}
	rec, _ := s2.Ready()
	if rec.Store.Corruptions == 0 {
		t.Fatalf("flipped bit not detected: %+v", rec.Store)
	}
	if len(rec.Repaired) == 0 {
		t.Fatalf("corruption detected but nothing repaired: %+v", rec)
	}
	after, _ := s2.StoreState()
	if err := invariant.Check(invariant.Event{Before: before, After: after, Repaired: rec.Repaired}).Err(); err != nil {
		t.Errorf("across repair: %v", err)
	}
	for _, dev := range rec.Repaired {
		if a, b := after.Devices[dev], before.Devices[dev]; a.GenCounter != 0 && a.GenCounter >= b.GenCounter {
			t.Errorf("repaired device %d counter %d looks resumed, want fresh", dev, a.GenCounter)
		}
	}
	// Repair retired the corrupt WAL via compaction: a further restart
	// must come up clean.
	for dev := 0; dev < cfg.Devices; dev++ {
		sess := runSessionOn(t, s2, dev)
		if sess.Err() != nil {
			t.Fatalf("post-repair session on device %d failed: %v", dev, sess.Err())
		}
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatalf("third New: %v", err)
	}
	defer func() { _ = s3.Shutdown(context.Background()) }()
	if err := s3.WaitReady(context.Background()); err != nil {
		t.Fatalf("third WaitReady: %v", err)
	}
	rec3, _ := s3.Ready()
	if rec3.Store.Corruptions != 0 || len(rec3.Repaired) != 0 {
		t.Fatalf("damage evidence survived repair + compaction: %+v", rec3)
	}
}

// The admission gate: submissions before recovery completes reject with
// ErrRecovering and nothing else leaks through.
func TestSubmitRejectsWhileRecovering(t *testing.T) {
	s, err := New(testConfig()) // no state dir: ready is already closed
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	// Reopen the gate to pin the "recovery still running" window.
	s.ready = make(chan struct{})
	if _, err := s.Submit(Request{Device: -1}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Submit during recovery: %v, want ErrRecovering", err)
	}
	if got := s.m.rejected.With("recovering").Value(); got != 1 {
		t.Errorf("recovering rejections %d, want 1", got)
	}
	close(s.ready)
	sess := runSessionOn(t, s, -1)
	if sess.Err() != nil {
		t.Fatalf("post-recovery session failed: %v", sess.Err())
	}
}

// A daemon whose store cannot open stays unready forever: /readyz reports
// failed, Submit rejects permanently — it must not accept unlock traffic
// it cannot make durable.
func TestRecoveryFailureFailsClosed(t *testing.T) {
	parent := t.TempDir()
	blocker := filepath.Join(parent, "notadir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(filepath.Join(blocker, "state"))
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	if err := s.WaitReady(context.Background()); err == nil {
		t.Fatal("WaitReady reported success with an unopenable store")
	}
	if _, err := s.Submit(Request{Device: -1}); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Submit after failed recovery: %v, want ErrRecovering", err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("/readyz status %d, want 503", resp.StatusCode)
	}
	var st ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "failed" || st.Error == "" {
		t.Fatalf("/readyz body %+v, want failed with error detail", st)
	}
}

// /readyz happy path surfaces the recovery report.
func TestReadyzReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	runSessionOn(t, s1, 0)
	s1.Kill() // leave WAL records for the successor to replay

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	if err := s2.WaitReady(context.Background()); err != nil {
		t.Fatalf("restart WaitReady: %v", err)
	}
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz status %d, want 200", resp.StatusCode)
	}
	var st ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" {
		t.Fatalf("/readyz status %q, want ok", st.Status)
	}
	if st.RecoveredRecords == 0 {
		t.Error("/readyz reported zero recovered records after a killed session")
	}
	if st.Corruptions != 0 {
		t.Errorf("/readyz reported %d corruptions on a clean kill", st.Corruptions)
	}
}

// writeDeviceStreams builds a state directory in which every device of
// cfg's fleet holds its seed-fresh pairing and counters but sits extra(id)
// draws past its seed-fresh stream position, as if it had served that
// many more random values before a crash. The store commits rounds
// records per device, each further along the stream, and snapshots every
// 1,024 records as the daemon does, so many rounds leave a snapshot plus
// an unsealed WAL tail; the returned records are the last round's.
func writeDeviceStreams(tb testing.TB, cfg Config, dir string, rounds int, extra func(id int) uint64) map[int]store.DeviceState {
	tb.Helper()
	fresh := cfg
	fresh.StateDir = ""
	s0, err := New(fresh)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	defer func() { _ = s0.Shutdown(context.Background()) }()
	st, err := store.Open(store.Options{Dir: dir, NoFsync: true, SnapshotEvery: 1024})
	if err != nil {
		tb.Fatalf("store.Open: %v", err)
	}
	want := make(map[int]store.DeviceState, len(s0.devices))
	for r := 1; r <= rounds; r++ {
		for _, dev := range s0.devices {
			dev.lock()
			ds := s0.exportDevice(dev)
			dev.mu.Unlock()
			ds.RngDraws += extra(dev.id) * uint64(r) / uint64(rounds)
			if err := st.CommitDevice(ds); err != nil {
				tb.Fatalf("CommitDevice %d: %v", dev.id, err)
			}
			want[dev.id] = ds
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatalf("store.Close: %v", err)
	}
	return want
}

// touchAll first-touches every device across GOMAXPROCS goroutines, so
// a timed touch runs the restores recovery leaves to first touch with
// the parallelism the host offers.
func touchAll(s *Service) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(s.devices)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(s.devices); i = int(next.Add(1)) - 1 {
				s.devices[i].lock()
				s.devices[i].mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// A daemon that served for a long time restarts as fast as a fresh one:
// restoring a device's random stream must not cost one step per value
// the device ever drew. 64 devices at 3·10^8 draws each would take about
// 30 s to fast-forward by drawing; recovery plus the first touch of every
// device (which is where each restore runs) must finish within a tenth
// of that under the race detector, with every stream at its persisted
// position and every device trusted. Without the race detector the
// window takes about 70 ms on a 2-vCPU Xeon, so the budget there is
// 700 ms: about ten times that, where a tenth of 30 s would only catch a
// restore some 40 times slower.
//
// The time is the process's CPU time over the window divided by
// GOMAXPROCS (touchAll spreads the restores over that many goroutines):
// on idle cores it reads as the wall time, and unlike the wall time it
// does not grow while other packages' test binaries share the cores, as
// they do under `go test -race ./...`. WaitReady's deadline only catches
// a recovery that never finishes.
func TestDurableRecoveryOfLongLivedStreams(t *testing.T) {
	bound := 700 * time.Millisecond
	if raceEnabled {
		bound = 3 * time.Second
	}
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Devices = 64
	want := writeDeviceStreams(t, cfg, dir, 1, func(id int) uint64 { return 3e8 + uint64(id)*7919 })

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	wallStart, cpuStart := time.Now(), processCPU(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("recovery of %d long-lived devices never finished: %v", cfg.Devices, err)
	}
	touchAll(s)
	took := (processCPU(t) - cpuStart) / time.Duration(runtime.GOMAXPROCS(0))
	wall := time.Since(wallStart)
	if took > bound {
		t.Fatalf("recovery and first touch of %d long-lived devices took %s of CPU per core (%s wall), want within %s", cfg.Devices, took, wall, bound)
	}
	t.Logf("recovery and first touch of %d long-lived devices: %s of CPU per core, %s wall", cfg.Devices, took, wall)
	rec, _ := s.Ready()
	if len(rec.Repaired) != 0 {
		t.Fatalf("recovery re-paired devices %v of a clean state dir", rec.Repaired)
	}
	if rec.RestoreDuration <= 0 || rec.RestoreDuration > rec.Duration {
		t.Errorf("RestoreDuration %s outside (0, Duration %s]", rec.RestoreDuration, rec.Duration)
	}
	var page strings.Builder
	s.Registry().WritePrometheus(&page)
	if want := fmt.Sprintf("wearlockd_recovery_restore_seconds %g\n", rec.RestoreDuration.Seconds()); !strings.Contains(page.String(), want) {
		t.Errorf("metrics page lacks %q", want)
	}
	for _, dev := range s.devices {
		dev.lock()
		got, ex := dev.src.Draws(), dev.sys.ExportState()
		dev.mu.Unlock()
		if w := want[dev.id]; got != w.RngDraws || ex.GenCounter != w.GenCounter || !bytes.Equal(ex.Key, w.Key) {
			t.Fatalf("device %d restored at draw %d gen %d, want draw %d gen %d with its key",
				dev.id, got, ex.GenCounter, w.RngDraws, w.GenCounter)
		}
	}
}

// Recovery lands a device on exactly the stream position it persisted:
// after a restore from a few million draws (far enough for SkipTo's jump
// path) the device's next values are the ones a linear fast-forward of
// the standard source yields.
func TestDurableRecoveryResumesStreamExactly(t *testing.T) {
	const dev = 1
	dir := t.TempDir()
	cfg := durableConfig(dir)
	want := writeDeviceStreams(t, cfg, dir, 1, func(id int) uint64 {
		if id == dev {
			return 5_000_003
		}
		return 0
	})
	at := want[dev].RngDraws
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	if err := s.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}

	ref := rand.NewSource(sim.SeedFor(cfg.Seed, dev)).(rand.Source64)
	for i := uint64(0); i < at; i++ {
		ref.Uint64()
	}
	d := s.devices[dev]
	d.lock()
	defer d.mu.Unlock()
	for i := 0; i < 2000; i++ {
		if got, w := d.src.Uint64(), ref.Uint64(); got != w {
			t.Fatalf("restored device %d draw %d: %#x, linear reference %#x", dev, at+uint64(i), got, w)
		}
	}
}

// After a crash the recovery report splits into log replay and device
// restore, both exported on /metrics, and a log this build wrote replays
// without one payload leaving the store's canonical decode path.
func TestDurableRecoveryReportsReplayRestoreAndFallbacks(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s1.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	for round := 0; round < 3; round++ {
		for dev := 0; dev < cfg.Devices; dev++ {
			runSessionOn(t, s1, dev)
		}
	}
	s1.Kill()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	if err := s2.WaitReady(context.Background()); err != nil {
		t.Fatalf("restart WaitReady: %v", err)
	}
	rec, _ := s2.Ready()
	if rec.Store.RecoveredRecords == 0 || rec.Store.Damaged() || len(rec.Repaired) != 0 {
		t.Fatalf("crash restart of a clean log: %+v", rec)
	}
	if rec.Store.DecodeFallbacks != 0 {
		t.Errorf("%d of this build's payloads fell back to encoding/json", rec.Store.DecodeFallbacks)
	}
	if replay, restore := rec.Store.ReplayDuration, rec.RestoreDuration; replay <= 0 || restore <= 0 || replay+restore > rec.Duration {
		t.Errorf("replay %s + restore %s not within total %s", replay, restore, rec.Duration)
	}
	var page strings.Builder
	s2.Registry().WritePrometheus(&page)
	for _, want := range []string{
		fmt.Sprintf("wearlockd_recovery_replay_seconds %g\n", rec.Store.ReplayDuration.Seconds()),
		fmt.Sprintf("wearlockd_recovery_restore_seconds %g\n", rec.RestoreDuration.Seconds()),
		fmt.Sprintf("wearlockd_recovery_seconds %g\n", rec.Duration.Seconds()),
		"wearlockd_recovery_decode_fallbacks 0\n",
	} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("metrics page lacks %q", want)
		}
	}
}

// Devices restore in parallel, but re-pairs run serially in device-ID
// order: with several refused records the Repaired list is ascending and
// the recorded error is the lowest-ID device whose re-pair failed.
func TestRecoveryRepairsInDeviceOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Devices = 16
	refused := map[int]bool{2: true, 5: true, 9: true, 13: true} // bad keyguard state: restore fails, re-pair works
	broken := map[int]bool{4: true, 11: true}                    // draw 0 precedes pairing: restore and re-pair both fail
	fresh := cfg
	fresh.StateDir = ""
	s0, err := New(fresh)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	for _, dev := range s0.devices {
		dev.lock()
		ds := s0.exportDevice(dev)
		dev.mu.Unlock()
		switch {
		case refused[dev.id]:
			ds.GuardState = 99
		case broken[dev.id]:
			ds.RngDraws = 0
		}
		if err := st.CommitDevice(ds); err != nil {
			t.Fatalf("CommitDevice %d: %v", dev.id, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	_ = s0.Shutdown(context.Background())

	for run := 0; run < 3; run++ {
		// Recovery compacts after re-pairs; each run restores a copy of
		// the original state directory.
		rdir := t.TempDir()
		copyDir(t, dir, rdir)
		rcfg := cfg
		rcfg.StateDir = rdir
		s, err := New(rcfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		_ = s.WaitReady(context.Background())
		rec, _ := s.Ready()
		if want := []int{2, 5, 9, 13}; !slices.Equal(rec.Repaired, want) {
			t.Errorf("run %d: repaired %v, want %v", run, rec.Repaired, want)
		}
		if rec.Err == nil || !strings.Contains(rec.Err.Error(), "re-pairing device 4:") {
			t.Errorf("run %d: recovery error %v, want the re-pair failure of device 4", run, rec.Err)
		}
		_ = s.Shutdown(context.Background())
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
