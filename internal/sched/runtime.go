package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines (processor surrogates).
	// Zero means runtime.GOMAXPROCS(0).
	Workers int
	// Seed seeds the per-worker random number generators used for victim
	// selection.  Zero selects a fixed default, making schedules
	// reproducible for a given worker count and interleaving.
	Seed uint64
	// Reducers is the reducer mechanism to notify about steals, view
	// transferal and merges.  Nil disables reducer support.
	Reducers ReducerRuntime
}

// parkAfterSweeps is how many empty victim sweeps an idle worker performs
// before parking; a service with AdaptiveParking raises the threshold to 8×
// while it has jobs in flight and drops it to 1 when idle.
const parkAfterSweeps = 4

// Stats aggregates scheduler counters across workers.
type Stats struct {
	Forks          int64 // Fork calls
	Steals         int64 // successful steals
	FailedSteals   int64 // steal sweeps that found nothing
	StalledJoins   int64 // forks whose continuation was stolen
	HelpedTasks    int64 // tasks executed while waiting at a join
	TasksExecuted  int64 // stolen or injected tasks executed
	MergeTasks     int64 // runtime-internal merge tasks run by thieves
	RootTasks      int64 // root jobs dispatched (Run and Service.Submit)
	MaxDequeDepth  int64 // high-water mark of any deque
	ParallelForSpl int64 // splits performed by ParallelFor
}

// Runtime is a work-stealing fork-join scheduler instance.
type Runtime struct {
	cfg      Config
	workers  []*Worker
	reducers ReducerRuntime

	quit     chan struct{}
	stopOnce sync.Once
	wake     chan struct{}
	parked   atomic.Int32
	started  sync.WaitGroup
	stopped  sync.WaitGroup

	// The job queue and accounting shared by Run and Service.Submit (see
	// job.go), guarded by mu.  Idle workers poll the queue after an empty
	// steal sweep, so job dispatch rides the existing scheduling loop
	// instead of a dedicated dispatcher goroutine.
	mu        sync.Mutex
	cond      *sync.Cond // signalled on every pop, eviction and settle
	queue     jobQueue
	heapDead  int // evicted entries still in the heap
	seq       uint64
	running   map[*JobHandle]struct{}
	unsettled int  // admitted jobs not yet settled or evicted
	closed    bool // admission stopped by Close
	// queuedLive mirrors the number of live (non-evicted) queued jobs so
	// the workers' pop fast path and pre-park recheck stay lock-free.
	queuedLive atomic.Int64

	// service is the resident service attached by NewService (at most
	// one), nil for a plain batch runtime.
	service atomic.Pointer[Service]

	// spin is the adaptive park threshold: how many empty sweeps a worker
	// tolerates before parking.  It starts at parkAfterSweeps; a
	// service with AdaptiveParking steers it with the live load (hot while
	// jobs are in flight, 1 when idle so an embedding server gets its CPUs
	// back).
	spin atomic.Int32

	// parks and unparks count actual worker park/unpark transitions (a
	// registration that backs out at the recheck is not a park).
	parks   atomic.Int64
	unparks atomic.Int64

	stats struct {
		rootJobs atomic.Int64
	}
}

// ErrClosed is returned by Run after Close has been called.
var ErrClosed = errors.New("sched: runtime is closed")

// New creates a runtime and starts its workers.
func New(cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9E3779B97F4A7C15
	}
	red := cfg.Reducers
	if red == nil {
		red = nopReducerRuntime{}
	}
	rt := &Runtime{
		cfg:      cfg,
		reducers: red,
		quit:     make(chan struct{}),
		wake:     make(chan struct{}, cfg.Workers),
		running:  make(map[*JobHandle]struct{}),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.spin.Store(parkAfterSweeps)
	rt.workers = make([]*Worker, cfg.Workers)
	for i := range rt.workers {
		rt.workers[i] = newWorker(rt, i, cfg.Seed+uint64(i)*0x9E3779B97F4A7C15+1)
	}
	for _, w := range rt.workers {
		rt.reducers.WorkerInit(w)
	}
	rt.started.Add(cfg.Workers)
	rt.stopped.Add(cfg.Workers)
	for _, w := range rt.workers {
		go w.loop()
	}
	rt.started.Wait()
	return rt
}

// Workers returns the number of workers.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Worker returns the i-th worker (for metrics and reducer bookkeeping).
func (rt *Runtime) Worker(i int) *Worker { return rt.workers[i] }

// Reducers returns the configured reducer mechanism, or nil if none.
func (rt *Runtime) Reducers() ReducerRuntime {
	if _, ok := rt.reducers.(nopReducerRuntime); ok {
		return nil
	}
	return rt.reducers
}

// Run executes fn on the worker pool and blocks until it — and every branch
// it forked — has completed.  It returns the Deposit produced by the root
// trace's view transferal, which the reducer mechanism uses to fold the
// computation's views into the reducers' leftmost (user-visible) views.
// A panic anywhere in the job is re-raised on the caller as the contained
// *PanicError, once the job has settled.
//
// Concurrent Run calls execute concurrently on the same pool and are
// independent of each other.  Run after Close returns ErrClosed.
func (rt *Runtime) Run(fn func(*Context)) (Deposit, error) {
	d, err := rt.RunContext(context.Background(), fn)
	if pe, ok := err.(*PanicError); ok {
		// Re-raising the wrapper itself keeps the caller's recover() able
		// to inspect the typed payload (via PanicError.Value) and the
		// captured stack.  Every branch of the job has been settled and its
		// views discarded, so the engine is reusable if the caller recovers.
		panic(pe)
	}
	return d, err
}

// RunContext is Run with the panic contained at the job boundary and with
// cooperative cancellation.  A panic anywhere in the job — any branch, any
// worker, the merge pipeline — is returned as a *PanicError carrying the
// original panic value and the panicking goroutine's stack.  When ctx is
// cancelled the job is asked to stop: every fork checkpoint (Fork, ForkN,
// ParallelFor splits, Group.Spawn) and every not-yet-started stolen branch
// observes the token and unwinds, already-running serial sections run to
// their next checkpoint (or may poll Context.Cancelled), and RunContext
// waits for the job to fully settle before returning ctx.Err() — it never
// abandons a running job, so a cancelled runtime is quiescent, not leaking.
// A job that completes in the same instant its context is cancelled has its
// root deposit discarded and still reports ctx.Err().
//
// The job travels the runtime's one job path: it is queued unbounded next
// to any service's submissions, run by an idle worker, and settled through
// its JobHandle, whose merge step hands the root deposit back here.
func (rt *Runtime) RunContext(ctx context.Context, fn func(*Context)) (Deposit, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var d Deposit
	h, _ := newJobHandle(ctx, rt, nil, JobSpec{Fn: fn})
	h.merge = func(root Deposit) { d = root }
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		h.abandonPreQueue(ErrClosed)
		return nil, ErrClosed
	}
	queued := rt.enqueueLocked(h)
	rt.mu.Unlock()
	if !queued {
		// Cancelled while being admitted: the job never ran.
		<-h.done
		return nil, h.err
	}
	rt.signalWork() // publish-then-signal, as in Service.Submit
	<-h.done
	<-h.settled // a cancelled job completes before it settles
	if h.err != nil {
		return nil, h.err
	}
	return d, nil
}

// Quiescent reports whether the scheduler holds no trace of any job: every
// admitted job has settled and every worker's deque is empty.  A panicked
// or cancelled job must leave the runtime quiescent by the time its Run or
// RunContext call returns; chaos tests assert this between jobs.
func (rt *Runtime) Quiescent() error {
	rt.mu.Lock()
	n := rt.unsettled
	rt.mu.Unlock()
	if n != 0 {
		return fmt.Errorf("sched: %d jobs still in flight", n)
	}
	for _, w := range rt.workers {
		if n := w.dq.size(); n != 0 {
			return fmt.Errorf("sched: worker %d deque still holds %d tasks", w.id, n)
		}
	}
	return nil
}

// Close is the runtime's drain: it stops admission (every later Run,
// RunContext or Service.Submit returns ErrClosed), waits until every job
// already admitted — from Run or Submit — has settled, then stops the
// workers and waits for them to exit.  Close is idempotent and safe to call
// concurrently with Run; it must not be called from inside a job.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.cond.Broadcast()
	for rt.unsettled > 0 {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
	rt.stopOnce.Do(func() { close(rt.quit) })
	rt.stopped.Wait()
}

// Stats aggregates counters across workers.
func (rt *Runtime) Stats() Stats {
	var s Stats
	s.RootTasks = rt.stats.rootJobs.Load()
	for _, w := range rt.workers {
		s.Forks += w.nForks.Load()
		s.Steals += w.nSteals.Load()
		s.FailedSteals += w.nFailedSteals.Load()
		s.StalledJoins += w.nStalledJoins.Load()
		s.HelpedTasks += w.nHelped.Load()
		s.TasksExecuted += w.nTasks.Load()
		s.MergeTasks += w.nMergeTasks.Load()
		s.ParallelForSpl += w.nPForSplits.Load()
		if d := w.maxDeque.Load(); d > s.MaxDequeDepth {
			s.MaxDequeDepth = d
		}
	}
	return s
}

// ResetStats zeroes all per-worker counters.
func (rt *Runtime) ResetStats() {
	rt.stats.rootJobs.Store(0)
	for _, w := range rt.workers {
		w.nForks.Store(0)
		w.nSteals.Store(0)
		w.nFailedSteals.Store(0)
		w.nStalledJoins.Store(0)
		w.nHelped.Store(0)
		w.nTasks.Store(0)
		w.nMergeTasks.Store(0)
		w.nPForSplits.Store(0)
		w.maxDeque.Store(0)
	}
}

// signalWork wakes one parked worker, if any.  Callers publish their work
// (the deque push, the job enqueue) before calling it; a parker registers in
// rt.parked before re-checking for work.  Under sequentially-consistent
// atomics one side always observes the other, so no wakeup is lost and
// workers never need a timed poll.
func (rt *Runtime) signalWork() {
	if rt.parked.Load() == 0 {
		return
	}
	select {
	case rt.wake <- struct{}{}:
	default:
		// The buffer already holds one token per worker; every parked
		// worker is guaranteed a wakeup, so dropping this one is safe.
	}
}

// setSpinAttempts adjusts the adaptive park threshold (minimum 1 sweep).
func (rt *Runtime) setSpinAttempts(n int32) {
	if n < 1 {
		n = 1
	}
	rt.spin.Store(n)
}

// spinAttempts returns the current park threshold.
func (rt *Runtime) spinAttempts() int { return int(rt.spin.Load()) }

// workAvailable reports whether any worker other than except holds a
// stealable task.  Parking workers call it after registering in rt.parked
// to close the race with a concurrent push.  The caller's own deque is
// excluded: a worker stalled at a join may still hold its enclosing
// continuations, which it can neither steal (trySteal skips itself) nor
// run early — counting them would make it spin instead of park.
func (rt *Runtime) workAvailable(except *Worker) bool {
	for _, w := range rt.workers {
		if w != except && w.dq.size() > 0 {
			return true
		}
	}
	return false
}
