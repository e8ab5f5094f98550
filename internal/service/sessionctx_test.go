package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A reused sessionCtx carries nothing of its previous session: an
// expired context, reset, is live again with a fresh done channel, and a
// timer callback left over from before the reset finds the new deadline
// unmet.
func TestSessionCtxReuse(t *testing.T) {
	var c sessionCtx
	c.reset(time.Now().Add(time.Millisecond))
	<-c.Done() // the timer expires it
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("expired context: Err %v", c.Err())
	}
	old := c.Done()

	c.reset(time.Now().Add(time.Hour))
	if c.Err() != nil {
		t.Fatalf("reset context: Err %v", c.Err())
	}
	done := c.Done()
	if done == old {
		t.Fatal("reset context kept its closed done channel")
	}
	c.fire() // a callback of the previous session's timer
	select {
	case <-done:
		t.Fatal("a stale timer callback closed the next session's context")
	default:
	}
	if d, ok := c.Deadline(); !ok || time.Until(d) < 59*time.Minute {
		t.Fatalf("Deadline = %v, %v", d, ok)
	}

	// Err alone expires a context whose deadline passed, and a Done asked
	// for afterwards comes closed.
	c.reset(time.Now().Add(-time.Millisecond))
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("past deadline: Err %v", c.Err())
	}
	<-c.Done()
}

// Waiters on their own wake channels race the sessions they wait for and
// contexts that end at the same moment (run with -race -count=10). Every
// await returns once, and every wake channel is empty afterwards, so the
// next session that borrows it is woken only by its own end.
func TestSessionAwaitRacesRelease(t *testing.T) {
	wake := make(chan struct{}, 1)
	for i := 0; i < 2000; i++ {
		sess := &Session{}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); sess.release() }()
		go func() { defer wg.Done(); cancel() }()
		err := sess.await(ctx, wake)
		wg.Wait()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("await: %v", err)
		}
		if len(wake) != 0 {
			t.Fatalf("round %d: wake channel left holding a signal", i)
		}
		if err := sess.Wait(context.Background()); err != nil {
			t.Fatalf("Wait after release: %v", err)
		}
	}
}
