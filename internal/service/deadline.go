package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is a request's deadline read from the clock: Err compares
// time.Now() with the deadline instead of waiting for a timer to fire.
// context.WithTimeout arms a runtime timer for every request, and a timer
// that becomes its P's earliest wakes a thread out of the network poller,
// although the engines answer long before any deadline. Every engine the
// service calls polls Err, so a request arms no timer. Only a caller that
// blocks on Done arms one, lazily: Done's channel closes at the deadline
// or when the parent ends.
//
// Like any context type that embeds its parent, Value (and so
// context.Cause) reads through to the parent.
type deadlineCtx struct {
	context.Context // the parent
	deadline        time.Time
	err             atomic.Pointer[error] // the first non-nil Err, kept

	mu         sync.Mutex
	done       chan struct{} // made by the first Done
	closed     bool
	timer      *time.Timer
	stopParent func() bool // unregisters the parent watch Done set up
}

// The errors a deadlineCtx ends with, held in variables so ending one
// allocates nothing.
var (
	errDeadline error = context.DeadlineExceeded
	errReleased error = context.Canceled
)

// withDeadline returns parent bounded by d, or by parent's own deadline
// when that comes first, as context.WithDeadline would. The caller must
// call release once the request is done.
func withDeadline(parent context.Context, d time.Time) *deadlineCtx {
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &deadlineCtx{Context: parent, deadline: d}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// Err returns the parent's error, or context.DeadlineExceeded once the
// clock reaches the deadline. The first non-nil answer is kept.
func (c *deadlineCtx) Err() error {
	if err := c.err.Load(); err != nil {
		return *err
	}
	if err := c.Context.Err(); err != nil {
		parent := err // a copy, so that only this branch allocates
		c.err.CompareAndSwap(nil, &parent)
		return *c.err.Load()
	}
	if time.Now().Before(c.deadline) {
		return nil
	}
	c.err.CompareAndSwap(nil, &errDeadline)
	return *c.err.Load()
}

// Done arms a timer for the deadline and a watch on the parent on first
// use. The channel closes when either fires, or at release.
func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	c.done = make(chan struct{})
	if c.Err() != nil {
		c.endLocked(nil)
		return c.done
	}
	c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.end(&errDeadline) })
	c.stopParent = context.AfterFunc(c.Context, func() {
		err := c.Context.Err()
		c.end(&err)
	})
	return c.done
}

// release ends the context as a cancel func would: Err reports
// context.Canceled unless the context has ended, Done's channel closes,
// and the timer and parent watch a Done call armed are stopped.
func (c *deadlineCtx) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endLocked(&errReleased)
	if c.timer != nil {
		c.timer.Stop()
		c.stopParent()
	}
}

func (c *deadlineCtx) end(err *error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.endLocked(err)
}

// endLocked keeps *err as the context's error unless one is kept (or err
// is nil), and closes Done's channel if it was made.
func (c *deadlineCtx) endLocked(err *error) {
	if err != nil {
		c.err.CompareAndSwap(nil, err)
	}
	if c.done != nil && !c.closed {
		c.closed = true
		close(c.done)
	}
}
