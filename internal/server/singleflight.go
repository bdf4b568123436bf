package server

import (
	"context"
	"errors"
	"sync"
)

// errFlightPanicked is what waiters observe when the leader's fn
// panicked: the panic propagates on the leader's goroutine (net/http
// recovers handler panics), and the flight must not wedge its key.
var errFlightPanicked = errors.New("server: in-flight evaluation panicked")

// flightGroup coalesces concurrent calls with the same key into one
// execution: the first caller (the leader) runs fn, every caller that
// arrives while the flight is open waits for and shares the leader's
// result. The module has no external dependencies, so this is a minimal
// in-tree analogue of golang.org/x/sync/singleflight, extended with
// waiter refcounting: every attached caller (the leader included) holds
// a reference on the flight, and the evaluation context handed to fn is
// cancelled when the last reference is dropped. A lone client that
// disconnects or times out therefore aborts its own evaluation, while a
// coalesced flight keeps running as long as any waiter is still
// interested in the result.
type flightGroup[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
}

type flight[V any] struct {
	done    chan struct{} // closed when val/err are set
	val     V
	err     error
	waiters int                // callers still attached (leader included)
	cancel  context.CancelFunc // cancels the evaluation context
}

// leave drops one caller's reference on f. When the last reference goes
// (and the flight has not completed yet) the evaluation context is
// cancelled so fn can stop working for nobody. Calling cancel after fn
// returned is harmless, so leave needs no completed-state check.
func (g *flightGroup[V]) leave(f *flight[V]) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}

// Do executes fn under key, coalescing concurrent duplicates. fn
// receives an evaluation context derived from base (never from any
// single caller's ctx) that is cancelled when every attached caller has
// departed — so the flight survives one waiter leaving but not all.
// joined reports whether this caller shared another caller's execution
// instead of running fn itself. A caller whose own ctx expires stops
// waiting and gets ctx.Err(); the flight itself keeps running for the
// remaining waiters.
func (g *flightGroup[V]) Do(ctx, base context.Context, key string, fn func(context.Context) (V, error)) (v V, err error, joined bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight[V])
	}
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err, true
		case <-ctx.Done():
			g.leave(f)
			var zero V
			return zero, ctx.Err(), true
		}
	}
	fctx, cancel := context.WithCancel(base)
	f := &flight[V]{done: make(chan struct{}), err: errFlightPanicked, waiters: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()

	// The leader cannot select on its own ctx while it runs fn, so its
	// departure (client gone, request deadline) is observed by AfterFunc:
	// the reference drops, and with no other waiters the evaluation
	// context cancels mid-fn. A leader that arrives already departed
	// drops its reference here instead: AfterFunc's goroutine may not be
	// scheduled before a short fn has finished with a live context.
	stopWatch := func() bool { return false }
	if ctx.Err() != nil {
		g.leave(f)
	} else {
		stopWatch = context.AfterFunc(ctx, func() { g.leave(f) })
	}

	// The deferred cleanup runs even when fn panics: the flight is
	// forgotten and done is closed, so waiters get errFlightPanicked
	// instead of blocking forever, and the key stays usable. cancel is
	// always called to release the evaluation context's resources; if
	// the watcher never fired its pending reference is released with it.
	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
		stopWatch()
		cancel()
	}()
	f.val, f.err = fn(fctx)
	return f.val, f.err, false
}
