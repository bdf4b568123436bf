package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bg is the no-deadline base context every test flight derives its
// evaluation context from.
var bg = context.Background()

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup[int]
	var executions atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const callers = 8
	var joinedCount atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		v, err, joined := g.Do(bg, bg, "k", func(context.Context) (int, error) {
			executions.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 || joined {
			t.Errorf("leader: v=%d err=%v joined=%v", v, err, joined)
		}
	}()
	<-started
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, joined := g.Do(bg, bg, "k", func(context.Context) (int, error) {
				executions.Add(1)
				return -1, nil
			})
			if err != nil || v != 42 {
				t.Errorf("joiner: v=%d err=%v", v, err)
			}
			if joined {
				joinedCount.Add(1)
			}
		}()
	}
	// Give the joiners a moment to register on the open flight, then
	// release the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := joinedCount.Load(); got != callers {
		t.Fatalf("%d callers joined, want %d", got, callers)
	}
}

func TestFlightGroupDistinctKeysRunIndependently(t *testing.T) {
	var g flightGroup[string]
	v1, err1, j1 := g.Do(bg, bg, "a", func(context.Context) (string, error) { return "A", nil })
	v2, err2, j2 := g.Do(bg, bg, "b", func(context.Context) (string, error) { return "B", nil })
	if err1 != nil || err2 != nil || j1 || j2 || v1 != "A" || v2 != "B" {
		t.Fatalf("independent keys: %q/%v/%v and %q/%v/%v", v1, err1, j1, v2, err2, j2)
	}
}

func TestFlightGroupSharesErrors(t *testing.T) {
	var g flightGroup[int]
	wantErr := errors.New("boom")
	_, err, _ := g.Do(bg, bg, "k", func(context.Context) (int, error) { return 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// The flight is forgotten after completion: a later call re-executes.
	v, err, joined := g.Do(bg, bg, "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 || joined {
		t.Fatalf("retry after error: v=%d err=%v joined=%v", v, err, joined)
	}
}

// TestFlightGroupLeaderPanicDoesNotWedgeKey: a panicking fn must
// propagate on the leader's goroutine, fail any waiters with an error,
// and leave the key usable for later calls.
func TestFlightGroupLeaderPanicDoesNotWedgeKey(t *testing.T) {
	var g flightGroup[int]
	started := make(chan struct{})
	joinerDone := make(chan error, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		g.Do(bg, bg, "k", func(context.Context) (int, error) {
			close(started)
			time.Sleep(20 * time.Millisecond) // let the joiner attach
			panic("pipeline blew up")
		})
	}()
	<-started
	go func() {
		_, err, _ := g.Do(bg, bg, "k", func(context.Context) (int, error) { return 9, nil })
		joinerDone <- err
	}()
	select {
	case err := <-joinerDone:
		if err == nil {
			t.Fatal("joiner of a panicked flight should see an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner wedged on a panicked flight")
	}
	// The key must not be poisoned.
	v, err, joined := g.Do(bg, bg, "k", func(context.Context) (int, error) { return 5, nil })
	if err != nil || v != 5 || joined {
		t.Fatalf("key unusable after panic: v=%d err=%v joined=%v", v, err, joined)
	}
}

func TestFlightGroupJoinerHonorsContext(t *testing.T) {
	var g flightGroup[int]
	release := make(chan struct{})
	started := make(chan struct{})
	defer close(release)
	go g.Do(bg, bg, "k", func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	_, err, joined := g.Do(ctx, bg, "k", func(context.Context) (int, error) { return 2, nil })
	if !joined || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled joiner: err=%v joined=%v", err, joined)
	}
}

// TestFlightGroupLoneCallerCancelsEvaluation: when a flight's only
// caller departs (client disconnect, request deadline), the evaluation
// context handed to fn is cancelled — nothing keeps computing for
// nobody.
func TestFlightGroupLoneCallerCancelsEvaluation(t *testing.T) {
	var g flightGroup[int]
	ctx, cancel := context.WithCancel(bg)
	evalCancelled := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, bg, "k", func(fctx context.Context) (int, error) {
			close(started)
			select {
			case <-fctx.Done():
				close(evalCancelled)
				return 0, fctx.Err()
			case <-time.After(10 * time.Second):
				return 0, errors.New("evaluation context never cancelled")
			}
		})
		done <- err
	}()
	<-started
	cancel() // the lone caller departs
	select {
	case <-evalCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("lone caller's departure did not cancel the evaluation context")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
}

// TestFlightGroupDepartedLeaderCancelsSynchronously: a lone caller whose
// ctx is already done when it enters Do (a request deadline shorter than
// the time to reach the evaluation) must hand fn an already-cancelled
// context. With one P, a watcher goroutine would not run before a short
// fn finished, so the release has to happen on the caller's goroutine.
func TestFlightGroupDepartedLeaderCancelsSynchronously(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var g flightGroup[int]
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err, _ := g.Do(ctx, bg, "k", func(fctx context.Context) (int, error) {
		return 0, fctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fn saw a live evaluation context (err = %v); want it cancelled on entry", err)
	}
}

// TestFlightGroupSurvivesDepartingWaiter is the refcounting core: one of
// two attached callers leaves and the evaluation keeps running for the
// survivor.
func TestFlightGroupSurvivesDepartingWaiter(t *testing.T) {
	var g flightGroup[int]
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(bg, bg, "k", func(fctx context.Context) (int, error) {
			close(started)
			select {
			case <-release:
				return 42, nil
			case <-fctx.Done():
				return 0, fctx.Err()
			}
		})
		leaderDone <- err
	}()
	<-started

	// A waiter joins, then departs on its own context.
	wctx, wcancel := context.WithCancel(bg)
	waiterDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(wctx, bg, "k", func(context.Context) (int, error) { return -1, nil })
		waiterDone <- err
	}()
	// Wait until the waiter is attached (waiters == 2), then drop it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		w := g.flights["k"].waiters
		g.mu.Unlock()
		if w == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never attached")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed waiter err = %v, want context.Canceled", err)
	}

	// The flight must still be live for the leader.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after a waiter departed: %v", err)
	}
}

// TestFlightGroupBaseContextCancelsEvaluation: the evaluation context is
// derived from base (server lifetime), so closing the server aborts
// flights regardless of waiters.
func TestFlightGroupBaseContextCancelsEvaluation(t *testing.T) {
	var g flightGroup[int]
	base, cancelBase := context.WithCancel(bg)
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(bg, base, "k", func(fctx context.Context) (int, error) {
			close(started)
			<-fctx.Done()
			return 0, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancelBase()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("base cancellation did not abort the flight")
	}
}
