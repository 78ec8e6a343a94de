package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseRacingRun races Runtime.Close against a burst of concurrent Run
// calls: every Run must either complete its job normally or return
// ErrClosed — never a hang, never a lost job.  The -race build additionally
// checks the queue/drain/park handshakes involved.
func TestCloseRacingRun(t *testing.T) {
	for round := 0; round < 40; round++ {
		rt := New(Config{Workers: 4})
		const callers = 6
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for g := 0; g < callers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g] = rt.Run(func(c *Context) {
					c.ParallelForGrain(0, 32, 1, func(c *Context, i int) {
						time.Sleep(time.Microsecond)
					})
				})
			}()
		}
		// Close somewhere in the middle of the burst: sometimes before any
		// Run lands, sometimes while jobs are executing.
		time.Sleep(time.Duration(round%5) * 50 * time.Microsecond)
		done := make(chan struct{})
		go func() { rt.Close(); close(done) }()
		wg.Wait()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close hung with concurrent Run calls", round)
		}
		for g, err := range errs {
			if err != nil && err != ErrClosed {
				t.Fatalf("round %d: caller %d got %v, want nil or ErrClosed", round, g, err)
			}
		}
		// A second Close is a no-op; Run after Close reports ErrClosed.
		rt.Close()
		if _, err := rt.Run(func(*Context) {}); err != ErrClosed {
			t.Fatalf("round %d: Run after Close returned %v, want ErrClosed", round, err)
		}
	}
}

// TestRunSharesServiceQueue runs Run and Submit on one runtime whose only
// worker is blocked: concurrent Run jobs queue next to the service's
// submissions without ever seeing ErrOverloaded or counting against its
// one-slot bound, Service.Close drains them rather than dropping them, and
// the pool is quiescent afterwards.
func TestRunSharesServiceQueue(t *testing.T) {
	ctx := context.Background()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for round := 0; round < 5; round++ {
		rt := New(Config{Workers: 1})
		s := NewService(rt, ServiceConfig{Queue: 1, Admit: AdmitReject})
		release := make(chan struct{})
		ran := make(chan struct{})
		blocker, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) {
			close(ran)
			<-release
		}})
		if err != nil {
			t.Fatalf("round %d: Submit blocker: %v", round, err)
		}
		<-ran

		const runs = 8
		var sum atomic.Int64
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for g := 0; g < runs; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g] = rt.Run(func(c *Context) {
					c.ParallelForGrain(0, 16, 1, func(c *Context, i int) { sum.Add(1) })
				})
			}()
		}
		waitFor("the Run jobs to queue", func() bool { return rt.queuedLive.Load() == runs })

		// Eight queued Run jobs leave the one-slot bound free: the first
		// submission is admitted, the second is rejected.
		queued, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) { sum.Add(1000) }})
		if err != nil {
			t.Fatalf("round %d: Submit with only Run jobs queued: %v", round, err)
		}
		if _, err := s.Submit(ctx, JobSpec{Fn: func(c *Context) {}}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("round %d: Submit over the bound = %v, want ErrOverloaded", round, err)
		}
		if st := s.Stats(); st.QueueDepth != 1 || st.Admitted != 2 || st.Rejected != 1 {
			t.Fatalf("round %d: stats %+v, want depth 1, admitted 2, rejected 1", round, st)
		}

		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		waitFor("Close to stop admission", func() bool {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.closed
		})
		close(release)
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		// Close returned, so every admitted job has settled: the Run jobs
		// were drained, not dropped.
		if got, want := sum.Load(), int64(runs*16+1000); got != want {
			t.Fatalf("round %d: sum after Close = %d, want %d", round, got, want)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d: Run %d returned %v, want nil", round, g, err)
			}
		}
		if err := blocker.Wait(); err != nil {
			t.Fatalf("round %d: blocker: %v", round, err)
		}
		if err := queued.Wait(); err != nil {
			t.Fatalf("round %d: queued submission: %v", round, err)
		}
		if err := rt.Quiescent(); err != nil {
			t.Fatalf("round %d: pool not quiescent after drain: %v", round, err)
		}
		if _, err := rt.Run(func(*Context) {}); err != ErrClosed {
			t.Fatalf("round %d: Run after Close returned %v, want ErrClosed", round, err)
		}
	}
}
