package service

import (
	"context"
	"sync"
	"time"
)

// sessionCtx is the context a session runs under: its deadline and
// nothing else. A worker borrows one from Service.ctxs for each session
// and returns it after, so a session costs no context of its own
// (DESIGN.md §10.2). Done makes its channel and arms its timer only when
// asked; a channel that was never closed serves the next session too.
type sessionCtx struct {
	mu       sync.Mutex
	deadline time.Time
	err      error
	done     chan struct{}
	closed   bool // done is closed
	timer    *time.Timer
	armed    bool // timer is set for deadline
}

// reset readies c for a session ending at deadline. Nothing of the
// previous session's survives: a timer it armed is stopped (and a firing
// already under way finds the new deadline unmet), and a closed done
// channel is dropped.
func (c *sessionCtx) reset(deadline time.Time) {
	c.mu.Lock()
	if c.armed {
		c.timer.Stop()
		c.armed = false
	}
	if c.closed {
		c.done, c.closed = nil, false
	}
	c.deadline, c.err = deadline, nil
	c.mu.Unlock()
}

func (c *sessionCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline, true
}

func (c *sessionCtx) Value(any) any { return nil }

func (c *sessionCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkLocked()
	return c.err
}

func (c *sessionCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
	}
	if c.checkLocked(); c.err == nil && !c.armed {
		if c.timer == nil {
			c.timer = time.AfterFunc(time.Until(c.deadline), c.fire)
		} else {
			c.timer.Reset(time.Until(c.deadline))
		}
		c.armed = true
	}
	return c.done
}

// fire is the timer's callback.
func (c *sessionCtx) fire() {
	c.mu.Lock()
	c.checkLocked()
	c.mu.Unlock()
}

// checkLocked expires c once its deadline has passed: Err turns
// DeadlineExceeded and done, if made, closes.
func (c *sessionCtx) checkLocked() {
	if c.err == nil && !time.Now().Before(c.deadline) {
		c.err = context.DeadlineExceeded
	}
	if c.err != nil && c.done != nil && !c.closed {
		close(c.done)
		c.closed = true
	}
}
