package service

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/vtime"
)

// outcomeCounts reads wearlockd_sessions_total per outcome from the
// /metrics exposition.
func outcomeCounts(t *testing.T, s *Service) map[string]uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^wearlockd_sessions_total\{outcome="([^"]+)"\} (\d+)$`)
	out := make(map[string]uint64)
	for _, m := range re.FindAllStringSubmatch(s.Registry().String(), -1) {
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[m[1]] = n
	}
	return out
}

// Every session on a device runs into the device's one core.Result, so a
// finished session must keep its own answer, not a view into that Result:
// on one device, a link-down session, an unlocking session and then a
// session the resilience ladder retries (under a chaos config, which
// arms the ladder) each keep the Snapshot and the /metrics outcome count
// they finished with while the later sessions overwrite the Result. The
// same sequence with the ladder off, where the Result's own timeline and
// channel storage are reused in place, ends in an abort instead of a
// ladder session.
func TestFinishedSessionKeepsItsAnswer(t *testing.T) {
	ladder := testConfig()
	// Session 3 alone loses 60 dB of acoustic SNR: its OFDM attempts
	// fail and the ladder steps down until a rung gets through.
	ladder.Chaos = &fault.Schedule{Name: "one-collapse", Rules: []fault.Rule{
		{Kind: fault.KindSNRCollapse, Prob: 1, From: 3, To: 4, SNRDropDB: 60},
	}}
	cases := []struct {
		name      string
		cfg       Config
		scenarios []string
	}{
		{"ladder", ladder, []string{"out-of-range", "quiet", "quiet"}},
		{"classic", testConfig(), []string{"out-of-range", "default", "attacker"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Devices = 1
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()

			var sessions []*Session
			var views [][]byte
			counts := make(map[string]uint64)
			for i, name := range tc.scenarios {
				sess, err := s.Submit(Request{Scenario: name, Device: 0})
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err = sess.Wait(ctx)
				cancel()
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				v := sess.Snapshot()
				if v.State != "done" {
					t.Fatalf("session %d ended %q: %s", i, v.State, v.Error)
				}
				counts[v.Outcome]++
				body, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, sess)
				views = append(views, body)
				t.Logf("session %d (%s): %s", i, name, body)
			}
			// The three sessions must end differently, or an overwrite
			// could leave a snapshot looking unchanged.
			if len(counts) != len(tc.scenarios) {
				t.Fatalf("outcomes %v: want %d distinct", counts, len(tc.scenarios))
			}
			if tc.cfg.Chaos != nil {
				if a, _ := sessions[2].Answer(); a.Attempts < 2 {
					t.Fatalf("the collapsed session ran %d attempts, want a ladder retry", a.Attempts)
				}
			}
			for i, sess := range sessions {
				body, err := json.Marshal(sess.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if string(body) != string(views[i]) {
					t.Errorf("session %d changed after later sessions:\nwas %s\nnow %s", i, views[i], body)
				}
			}
			if got := outcomeCounts(t, s); fmt.Sprint(got) != fmt.Sprint(counts) {
				t.Errorf("/metrics outcome counts %v, sessions finished with %v", got, counts)
			}
		})
	}
}

// A GC sweep drops exactly the finished sessions older than the TTL,
// oldest first, and keeps unfinished and fresh ones; the tracked gauge
// and the GC counter agree with what it dropped.
func TestSessionGCDropsOnlyExpired(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 8
	cfg.GCInterval = time.Hour // the test drives sweeps
	clock := vtime.NewManualClock(time.Unix(1700000000, 0))
	cfg.Clock = clock
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	gates := make(map[int]chan struct{}) // device -> release
	for d := 0; d < cfg.Devices; d++ {
		gates[d] = make(chan struct{})
	}
	s.unlock = func(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error) {
		select {
		case <-gates[dev.id]:
		case <-ctx.Done():
			return Answer{}, ctx.Err()
		}
		return Answer{Outcome: core.OutcomeUnlocked, Unlocked: true, BER: -1}, nil
	}
	finish := func(dev int) *Session {
		t.Helper()
		sess, err := s.Submit(Request{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		close(gates[dev])
		if err := sess.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	// Devices 0 and 1 finish a minute apart; device 2 finishes last;
	// device 3 never finishes.
	old := finish(0)
	clock.Advance(time.Minute)
	middle := finish(1)
	clock.Advance(time.Minute)
	fresh := finish(2)
	running, err := s.Submit(Request{Device: 3})
	if err != nil {
		t.Fatal(err)
	}

	check := func(when string, gone, kept []*Session, gced uint64) {
		t.Helper()
		for _, sess := range gone {
			if _, ok := s.Get(sess.ID); ok {
				t.Errorf("%s: expired session %s still tracked", when, sess.ID)
			}
		}
		for _, sess := range kept {
			if _, ok := s.Get(sess.ID); !ok {
				t.Errorf("%s: session %s dropped", when, sess.ID)
			}
		}
		if got := s.m.tracked.Value(); got != int64(len(kept)) {
			t.Errorf("%s: tracked gauge %d, want %d", when, got, len(kept))
		}
		if got := s.Health().TrackedSessions; got != len(kept) {
			t.Errorf("%s: /healthz tracks %d, want %d", when, got, len(kept))
		}
		if got := s.m.gced.Value(); got != gced {
			t.Errorf("%s: GC counter %d, want %d", when, got, gced)
		}
	}
	// Now is two minutes past old's finish: with a one-minute TTL, old and
	// middle (finished exactly a TTL ago, not before the cutoff) differ.
	s.gcOnce(clock.Now())
	check("first sweep", []*Session{old}, []*Session{middle, fresh, running}, 1)
	s.gcOnce(clock.Now())
	check("repeated sweep", []*Session{old}, []*Session{middle, fresh, running}, 1)
	clock.Advance(time.Hour)
	s.gcOnce(clock.Now())
	check("an hour on", []*Session{old, middle, fresh}, []*Session{running}, 3)

	// The running session finishes now and expires a TTL later.
	close(gates[3])
	if err := running.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.gcOnce(clock.Now())
	check("just finished", []*Session{old, middle, fresh}, []*Session{running}, 3)
	clock.Advance(cfg.SessionTTL + time.Nanosecond)
	s.gcOnce(clock.Now())
	check("a TTL later", []*Session{old, middle, fresh, running}, nil, 4)
}

// A warm Submit → Wait → Snapshot on an in-memory daemon allocates only
// the session's own bookkeeping (the Session, its ID, its done channel,
// the queued closure and the request deadline) plus the core's abort
// Detail: nothing of the core.Result, which the device pair owns and
// reuses. The ceilings are the counts measured per scenario: default
// unlocks, out-of-range and attacker abort with formatted Detail text.
func TestWarmSubmitAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ceilings := map[string]float64{"default": 4, "out-of-range": 6, "attacker": 7}
	for _, name := range []string{"default", "out-of-range", "attacker"} {
		cfg := testConfig()
		cfg.GCInterval = time.Hour // no sweep runs during the count
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			sess, err := s.Submit(Request{Scenario: name, Device: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if v := sess.Snapshot(); v.State != "done" {
				t.Fatalf("%s: session %s: %s", name, v.State, v.Error)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(50, run); allocs > ceilings[name] {
			t.Errorf("%s: warm Submit/Wait/Snapshot allocated %.1f objects, ceiling %.0f", name, allocs, ceilings[name])
		} else {
			t.Logf("%s: %.1f allocations per warm Submit/Wait/Snapshot", name, allocs)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableSubmitAllocationCeiling counts a warm light unlock on a
// durable daemon from the request to the answer's body bytes, as both
// transports run it: Submit, the session under its borrowed context, the
// group commit with a reused handle, the wait on the caller's own wake
// channel and the view appended to a reused buffer. What is left is the
// Session and its ID, the worker's task, the session's Detail, the
// device's exported key and the session map's growth; the attacker's
// motion filter adds one.
func TestDurableSubmitAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ceilings := map[string]float64{"out-of-range": 6, "attacker": 7}
	for _, name := range []string{"out-of-range", "attacker"} {
		cfg := durableConfig(t.TempDir())
		cfg.GCInterval = time.Hour // no sweep runs during the count
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitReady(context.Background()); err != nil {
			t.Fatal(err)
		}
		device := 1
		req := cluster.UnlockRequest{Scenario: name, Device: &device}
		wake := make(chan struct{}, 1)
		var reply unlockReply
		var body []byte
		run := func() {
			s.unlockAnswer(context.Background(), &req, wake, &reply)
			if body, err = reply.appendBody(body[:0]); err != nil || reply.status != 200 || reply.view.State != "done" {
				t.Fatalf("%s: %d %s: %v", name, reply.status, body, err)
			}
		}
		for i := 0; i < 10; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(50, run); allocs > ceilings[name] {
			t.Errorf("%s: warm durable unlock allocated %.1f objects, ceiling %.0f", name, allocs, ceilings[name])
		} else {
			t.Logf("%s: %.1f allocations per warm durable unlock", name, allocs)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
