package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// A scenario beyond the transport's range must abort on the wireless
// presence check — the first filter — with OutcomeAbortedLinkDown, not an
// error.
func TestUnlockAbortsWhenLinkDown(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sc := DefaultScenario()
	sc.Distance = 20 // Bluetooth presence tops out around 12 m
	res, err := sys.Unlock(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if res.Outcome != OutcomeAbortedLinkDown {
		t.Fatalf("outcome %s, want %s", res.Outcome, OutcomeAbortedLinkDown)
	}
	if res.Unlocked {
		t.Error("link-down session unlocked")
	}
	if res.Detail == "" {
		t.Error("no abort detail recorded")
	}
}

// An already-canceled context must abort the session before any protocol
// work, and cancellation between phases must surface ctx's error rather
// than a Result.
func TestUnlockCtxCancellation(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Unlock(canceled, DefaultScenario(), nil); err != context.Canceled {
		t.Errorf("pre-canceled Unlock: %v, want context.Canceled", err)
	}

	// An expired deadline behaves the same over a caller-supplied path.
	sc := DefaultScenario()
	cfg := DefaultConfig()
	sys2, err := NewSystem(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	link, err := sc.AcousticLink(cfg.Band, 44100, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("AcousticLink: %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := sys2.Unlock(expired, sc, NewLinkPath(link)); err != context.DeadlineExceeded {
		t.Errorf("expired Unlock: %v, want context.DeadlineExceeded", err)
	}

	// A live context still completes the session.
	res, err := sys.Unlock(context.Background(), DefaultScenario(), nil)
	if err != nil {
		t.Fatalf("live Unlock: %v", err)
	}
	if res.Outcome == 0 {
		t.Error("no outcome recorded")
	}
}

// RunBatch must propagate its context into the sessions: a canceled batch
// reports the context error instead of fabricating results.
func TestRunBatchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatch(BatchSpec{
		Config:   DefaultConfig(),
		Scenario: DefaultScenario(),
		Sessions: 4,
		Seed:     42,
		Parallel: 2,
		Ctx:      ctx,
	})
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
}
