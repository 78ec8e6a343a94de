package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// This file turns the batch fork-join runtime into a resident multi-tenant
// service.  Every job, Run or Submit, already travels the runtime's one
// job path (job.go): a priority queue drained by idle workers, settlement
// through a JobHandle, and Runtime.Close as the drain.  A Service adds the
// admission policy on top: a bound on its queued jobs with a configurable
// overload policy, per-job deadlines enforced at the existing
// fork/steal/merge cancellation checkpoints, a watchdog that cancels jobs
// whose steal/merge progress stops, adaptive worker parking driven by the
// live load, and a Close that applies the drain policy and verifies
// pool-wide quiescence.

// AdmitPolicy selects what Submit does when the admission queue is full.
type AdmitPolicy uint8

const (
	// AdmitBlock blocks the submitter until queue space frees up, the
	// submission context is cancelled, or the service closes.  This is the
	// classic backpressure policy and the default.
	AdmitBlock AdmitPolicy = iota
	// AdmitReject fails the submission immediately with ErrOverloaded.
	AdmitReject
	// AdmitShedOldest admits the new job and sheds the oldest queued job of
	// the lowest priority class, completing the shed job's handle with
	// ErrOverloaded.  The submitter of a fresher request wins over a stale
	// queued one, which suits deadline-bound request serving.
	AdmitShedOldest
)

// String returns the policy name.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitBlock:
		return "block"
	case AdmitReject:
		return "reject"
	case AdmitShedOldest:
		return "shed-oldest"
	default:
		return fmt.Sprintf("admit-policy(%d)", uint8(p))
	}
}

// DrainPolicy selects what Close does with jobs admitted before the close.
type DrainPolicy uint8

const (
	// DrainFinish runs every queued and running job to completion before
	// shutting the workers down (new submissions still fail immediately).
	DrainFinish DrainPolicy = iota
	// DrainCancel cancels queued jobs (their handles complete with
	// ErrClosed without ever running) and asks running jobs to stop at
	// their next cancellation checkpoint, then waits for them to settle.
	DrainCancel
)

// String returns the policy name.
func (p DrainPolicy) String() string {
	switch p {
	case DrainFinish:
		return "finish"
	case DrainCancel:
		return "cancel"
	default:
		return fmt.Sprintf("drain-policy(%d)", uint8(p))
	}
}

// ErrOverloaded is returned by Submit under AdmitReject when the admission
// queue is full, and delivered to a shed job's handle under AdmitShedOldest.
var ErrOverloaded = errors.New("sched: service overloaded")

// ErrStalled is the sentinel every watchdog cancellation wraps; classify a
// job error with errors.Is(err, ErrStalled).
var ErrStalled = errors.New("sched: job stalled")

// StallError is the error a watchdog-cancelled job completes with: the
// stall window that elapsed without scheduler-visible progress and a stack
// dump of every goroutine captured at detection time (the diagnostic for
// "where is my job stuck").
type StallError struct {
	// Window is the configured watchdog window the job exceeded.
	Window time.Duration
	// Stack is a runtime.Stack(..., true) capture taken when the stall was
	// detected.
	Stack []byte
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sched: job made no steal/merge progress for %v", e.Window)
}

// Unwrap links every StallError to ErrStalled.
func (e *StallError) Unwrap() error { return ErrStalled }

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Queue bounds the admission queue (jobs admitted but not yet taken by
	// a worker).  Zero selects 4× the worker count.
	Queue int
	// Admit selects the overload policy (default AdmitBlock).
	Admit AdmitPolicy
	// Drain selects what Close does with in-flight jobs (default
	// DrainFinish).
	Drain DrainPolicy
	// Watchdog, when positive, enables the stall watchdog: a job whose
	// progress counter (dispatch, stolen/helped tasks, merge tasks) does
	// not move for a whole window is cancelled with a *StallError carrying
	// an all-goroutine stack dump.  The criterion is scheduler progress, so
	// a legitimate serial section longer than the window is flagged too —
	// size the window for request-shaped fork-join jobs.  Zero disables.
	Watchdog time.Duration
	// AdaptiveParking lets the service steer how long idle workers spin
	// before parking: while jobs are queued or running workers stay hot
	// (longer steal sweeps before parking, lower dispatch latency), and
	// when the service goes idle workers park after a single failed sweep
	// so an embedding server gets its CPUs back.
	AdaptiveParking bool
	// RootMerge, when non-nil, is called by the finishing worker with a
	// successful job's root deposit (the engine's MergeRootDeposit).  When
	// nil the deposit is discarded through the runtime's reducer hooks.
	RootMerge func(Deposit)
	// Quiesce, when non-nil, is the engine-side leak check Close runs after
	// the pool has drained and stopped (the engine's Quiescent).
	Quiesce func() error
}

// JobSpec describes one submission.
type JobSpec struct {
	// Fn is the job's root closure, executed on the worker pool exactly
	// like a Run root.  Required.
	Fn func(*Context)
	// Priority orders the admission queue: higher runs first, ties run in
	// submission order.  Zero is the normal priority.
	Priority int
	// Timeout, when positive, bounds the job's total latency — queue wait
	// included.  It is implemented as a context deadline, so expiry
	// completes the handle with context.DeadlineExceeded and cancels the
	// job at its next checkpoint.
	Timeout time.Duration
	// OnDone, when non-nil, runs exactly once when the handle completes —
	// after the result (or error) is recorded, before Done unblocks — on
	// whichever goroutine completed the job.  It must not block or call
	// back into the handle's Wait.
	OnDone func(err error)
	// OnSettle, when non-nil, runs exactly once when the job settles: when
	// no strand of the job can execute again — the worker has fully
	// unwound (for dispatched jobs) or the job was evicted before dispatch.
	// For a cancelled job this is later than OnDone: the handle completes
	// the moment the cancellation is delivered, while branches already on
	// workers keep unwinding to their next checkpoint.  Resources the job's
	// code itself uses — the cilkm facade's per-job reducer session above
	// all — must be released here, not in OnDone, or a straggling strand
	// could observe another tenant's reuse of them.  It must not block.
	OnSettle func()
}

// ServiceStats is a point-in-time snapshot of the service counters.  They
// count this service's Submit jobs only; Run calls sharing the pool are not
// included.
type ServiceStats struct {
	Admitted        int64 // jobs accepted into the queue
	Rejected        int64 // submissions failed with ErrOverloaded (AdmitReject)
	Shed            int64 // queued jobs evicted by AdmitShedOldest
	Settled         int64 // jobs fully settled (success, failure, or cancel)
	DeadlineMisses  int64 // jobs cancelled by deadline expiry
	WatchdogCancels int64 // jobs cancelled by the stall watchdog
	QueueDepth      int64 // jobs currently queued
	Running         int64 // jobs currently executing
	QueueCapacity   int64 // configured bound
}

// Service is a resident multi-tenant runtime: a shared worker pool
// accepting concurrent job submissions from many goroutines.  Create one
// with NewService; submit with Submit; shut down with Close.
type Service struct {
	rt  *Runtime
	cfg ServiceConfig

	closeOnce sync.Once
	closeErr  error

	// queued counts this service's live queued jobs (the admission bound
	// and QueueDepth); runningCnt its dispatched, unsettled ones.  The
	// runtime's job accounting (job.go) maintains both.
	queued     atomic.Int64
	runningCnt atomic.Int64

	stopWatchdog chan struct{}

	admitted        atomic.Int64
	rejected        atomic.Int64
	shed            atomic.Int64
	settled         atomic.Int64
	deadlineMisses  atomic.Int64
	watchdogCancels atomic.Int64
}

// NewService attaches a resident service to the runtime.  At most one
// service may be attached to a runtime; a second NewService panics.  The
// service adds admission policy on top of the runtime's own job queue —
// the bound, the overload policy, deadlines, the watchdog and the drain
// policy — so the runtime's Run and RunContext remain usable alongside it:
// their jobs share the queue and the pool, never count against the bound,
// and are drained by Close like submitted jobs.
func NewService(rt *Runtime, cfg ServiceConfig) *Service {
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * rt.Workers()
	}
	s := &Service{
		rt:           rt,
		cfg:          cfg,
		stopWatchdog: make(chan struct{}),
	}
	if !rt.service.CompareAndSwap(nil, s) {
		panic("sched: runtime already has a service attached")
	}
	if cfg.Watchdog > 0 {
		go s.watchdog()
	}
	return s
}

// Runtime returns the underlying scheduler runtime.
func (s *Service) Runtime() *Runtime { return s.rt }

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Admitted:        s.admitted.Load(),
		Rejected:        s.rejected.Load(),
		Shed:            s.shed.Load(),
		Settled:         s.settled.Load(),
		DeadlineMisses:  s.deadlineMisses.Load(),
		WatchdogCancels: s.watchdogCancels.Load(),
		QueueDepth:      s.queued.Load(),
		Running:         s.runningCnt.Load(),
		QueueCapacity:   int64(s.cfg.Queue),
	}
}

// Submit admits a job for execution on the worker pool and returns a handle
// to wait on.  It is safe to call from any number of goroutines.  The
// submission context governs the job end to end: cancelling it (or its
// deadline expiring) evicts a queued job immediately and cancels a running
// one at its next checkpoint; spec.Timeout additionally bounds the job when
// the caller's context has no deadline of its own.
//
// Submit's error reports an admission failure only: ErrClosed after (or
// racing) Close, ErrOverloaded under AdmitReject with a full queue, the
// context's error when ctx died while blocked for space, or an injected
// admission fault.  A handle returned with a nil error always completes —
// job execution errors are reported by Wait.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	if spec.Fn == nil {
		return nil, errors.New("sched: Submit with nil JobSpec.Fn")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faultinject.Enabled() {
		if err := faultinject.Error(faultinject.ServiceAdmit); err != nil {
			s.rejected.Add(1)
			return nil, err
		}
	}
	rt := s.rt
	h, ctx := newJobHandle(ctx, rt, s, spec)
	h.merge = s.cfg.RootMerge

	rt.mu.Lock()
	for {
		if rt.closed {
			rt.mu.Unlock()
			h.abandonPreQueue(ErrClosed)
			return nil, ErrClosed
		}
		if h.state.Load() == jobStateEvicted {
			// The deadline or the caller's context fired while we were
			// waiting for space: the handle already completed with the
			// cause; report admission success so the caller reads the
			// outcome from the handle, exactly as if eviction had won a
			// moment after queueing.
			rt.mu.Unlock()
			return h, nil
		}
		if int(s.queued.Load()) < s.cfg.Queue {
			break
		}
		switch s.cfg.Admit {
		case AdmitReject:
			s.rejected.Add(1)
			rt.mu.Unlock()
			h.abandonPreQueue(ErrOverloaded)
			return nil, ErrOverloaded
		case AdmitShedOldest:
			if !s.shedOldestLocked() {
				// Nothing evictable (a race emptied the queue): re-check
				// capacity on the next loop iteration.
				continue
			}
		default: // AdmitBlock
			stop := context.AfterFunc(ctx, func() {
				rt.mu.Lock()
				rt.cond.Broadcast()
				rt.mu.Unlock()
			})
			rt.cond.Wait()
			stop()
			if err := ctx.Err(); err != nil {
				if rt.closed {
					// Deterministic contract: a Submit that raced Close
					// reports ErrClosed even if its context also died.
					rt.mu.Unlock()
					h.abandonPreQueue(ErrClosed)
					return nil, ErrClosed
				}
				rt.mu.Unlock()
				h.abandonPreQueue(err)
				return nil, err
			}
		}
	}
	if !rt.enqueueLocked(h) {
		// Evicted in the instant before queueing (see above).
		rt.mu.Unlock()
		return h, nil
	}
	rt.mu.Unlock()
	s.updateSpin()
	// Publish-then-signal: the queue store above happens-before this load
	// of rt.parked (both sides use sequentially-consistent atomics), so a
	// worker registering as parked either sees the queued job in its
	// recheck or is woken here — no lost wakeup.
	rt.signalWork()
	return h, nil
}

// shedOldestLocked evicts this service's oldest queued job of the lowest
// priority class, completing it with ErrOverloaded.  Caller holds rt.mu.
// Returns false when no live queued job exists.
func (s *Service) shedOldestLocked() bool {
	var victim *JobHandle
	for _, h := range s.rt.queue {
		if h.svc != s || h.state.Load() != jobStateQueued {
			continue
		}
		if victim == nil ||
			h.priority < victim.priority ||
			(h.priority == victim.priority && h.seq < victim.seq) {
			victim = h
		}
	}
	if victim == nil {
		return false
	}
	if !victim.state.CompareAndSwap(jobStateQueued, jobStateEvicted) {
		return false // lost a race to another eviction; retry from Submit
	}
	s.shed.Add(1)
	victim.job.cancelled.Store(true)
	victim.storeCause(ErrOverloaded)
	if victim.claimCompletion() {
		victim.deliver(ErrOverloaded)
	}
	victim.runOnSettle() // never dispatched
	s.rt.evictedLocked(victim)
	return true
}

// countCancel classifies a delivered cancellation for the metrics.
func (s *Service) countCancel(cause error) {
	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		s.deadlineMisses.Add(1)
	case errors.Is(cause, ErrStalled):
		s.watchdogCancels.Add(1)
	}
}

// updateSpin steers the adaptive parking level from the live load.
func (s *Service) updateSpin() {
	if !s.cfg.AdaptiveParking {
		return
	}
	if s.queued.Load() > 0 || s.runningCnt.Load() > 0 {
		s.rt.setSpinAttempts(8 * parkAfterSweeps)
	} else {
		s.rt.setSpinAttempts(1)
	}
}

// watchdog periodically scans running jobs for stalled progress counters.
func (s *Service) watchdog() {
	period := s.cfg.Watchdog / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopWatchdog:
			return
		case <-ticker.C:
			s.scanStalls(time.Now())
		}
	}
}

// ownRunning snapshots this service's running jobs.
func (s *Service) ownRunning(into []*JobHandle) []*JobHandle {
	for h := range s.rt.running {
		if h.svc == s {
			into = append(into, h)
		}
	}
	return into
}

// scanStalls cancels every running job whose progress counter has not moved
// for a full watchdog window, attaching an all-goroutine stack dump.
func (s *Service) scanStalls(now time.Time) {
	s.rt.mu.Lock()
	snapshot := s.ownRunning(nil)
	s.rt.mu.Unlock()
	for _, h := range snapshot {
		p := h.job.progress.Load()
		if h.lastActive.IsZero() || p != h.lastProgress {
			h.lastProgress = p
			h.lastActive = now
			continue
		}
		if now.Sub(h.lastActive) < s.cfg.Watchdog || h.completed.Load() {
			continue
		}
		// Stalled: capture the diagnostic before completing the handle so
		// StallDump is populated by the time Done closes.
		h.stall = allStacks()
		h.cancel(&StallError{Window: s.cfg.Watchdog, Stack: h.stall})
	}
}

// allStacks captures every goroutine's stack.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Close drains and shuts the service down: admission stops first (every
// Submit or Run from this point deterministically returns ErrClosed,
// including submitters blocked for queue space), this service's in-flight
// jobs are finished or cancelled per the drain policy, Runtime.Close waits
// for every admitted job — Run calls included — to settle and stops the
// pool, and pool-wide quiescence is verified — the scheduler's own
// accounting plus the engine check configured in ServiceConfig.Quiesce.
// The first leak found (or a non-quiescent pool) is returned as an error.
// Close is idempotent; concurrent calls all return the first close's
// verdict.
func (s *Service) Close() error {
	s.closeOnce.Do(s.drain)
	return s.closeErr
}

// drain is Close's body, run once.
func (s *Service) drain() {
	rt := s.rt
	rt.mu.Lock()
	rt.closed = true
	rt.cond.Broadcast()
	var toCancel []*JobHandle
	if s.cfg.Drain == DrainCancel {
		for _, h := range rt.queue {
			if h.svc == s && h.state.Load() == jobStateQueued {
				toCancel = append(toCancel, h)
			}
		}
		toCancel = s.ownRunning(toCancel)
	}
	rt.mu.Unlock()

	if faultinject.Enabled() {
		faultinject.Perturb(faultinject.ServiceDrain)
	}
	for _, h := range toCancel {
		h.cancel(ErrClosed)
	}

	// Under DrainFinish the queued jobs are still being dispatched by the
	// workers; under DrainCancel the evictions above have already retired
	// the queued ones and the running ones unwind at their next checkpoint.
	rt.Close()
	close(s.stopWatchdog)

	err := rt.Quiescent()
	if err == nil && s.cfg.Quiesce != nil {
		err = s.cfg.Quiesce()
	}
	s.closeErr = err
}
