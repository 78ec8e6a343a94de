package sched

import (
	"container/heap"
	"context"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// This file is the runtime's one job path.  Every root computation — a
// Runtime.Run/RunContext call or a Service.Submit — is a JobHandle admitted
// to the runtime's priority queue, taken by an idle worker (runServiceJob),
// and settled by settleFromWorker: the root deposit is handed to the
// handle's merge step, the job is retired from the runtime's accounting,
// and its waiters are released.  Cancellation of every kind goes through
// JobHandle.cancel, and Runtime.Close is the one drain.

// Job handle states.
const (
	jobStateNew int32 = iota
	jobStateQueued
	jobStateRunning
	jobStateSettled
	jobStateEvicted // cancelled or shed before a worker took it
)

// JobHandle tracks one submitted job.  The submitter keeps it to wait for
// (or cancel) the job; the runtime and the finishing worker complete it.
//
// Completion and settlement are distinct: the handle completes when its
// outcome is decided (result merged, or a cancellation/deadline/stall
// delivered), which is when Wait unblocks; a cancelled job settles slightly
// later, once every branch it spawned has unwound and its views are
// discarded.  Drain and quiescence wait for settlement, so a Close after
// Wait never races a job's teardown.
type JobHandle struct {
	rt       *Runtime
	svc      *Service // nil for a Run job
	fn       func(*Context)
	job      *job
	priority int
	seq      uint64
	// merge receives a successful job's root deposit on the finishing
	// worker: the service's RootMerge, or Run's hand-back to its caller.
	// Nil discards the deposit through the runtime's reducer hooks.
	merge func(Deposit)

	// state is the queue-lifecycle state (jobState*), advanced by CAS so
	// the dispatch/cancel race has exactly one winner.
	state atomic.Int32
	// completed is the once-only completion claim: whoever wins the CAS
	// delivers the outcome.
	completed atomic.Bool
	// cause records the first cancellation cause (deadline, caller cancel,
	// stall, shed, close) for the settle path to report.
	cause atomic.Pointer[causeBox]

	// err is written exactly once before done is closed; read it only
	// after Done is closed (Wait and Err do this).
	err  error
	done chan struct{}
	// settled is closed once an admitted job has left the runtime's
	// accounting (after OnSettle); Run waits on it as well as on done.
	settled chan struct{}

	// ctxCancel releases the Timeout-derived context; stopWatch detaches
	// the context watcher.  Both are set before the handle is published to
	// the queue and called once at completion.
	ctxCancel context.CancelFunc
	stopWatch func() bool
	onDone    func(error)
	onSettle  func()
	// settleOnce guards onSettle: cancellation racing dispatch means two
	// paths can each believe they retired the job.
	settleOnce atomic.Bool

	// stall holds the watchdog's all-goroutine stack dump when the job was
	// cancelled for stalling; written before the handle completes.
	stall []byte

	// lastProgress and lastActive are watchdog-goroutine-only bookkeeping.
	lastProgress uint64
	lastActive   time.Time
}

type causeBox struct{ err error }

// newJobHandle builds the handle for one admission.  The deadline and the
// context watcher are armed here, before the handle becomes reachable by
// any cancellation path, so deliver never races the field stores.  It
// returns the job's context (ctx narrowed by spec.Timeout).
func newJobHandle(ctx context.Context, rt *Runtime, svc *Service, spec JobSpec) (*JobHandle, context.Context) {
	h := &JobHandle{
		rt:       rt,
		svc:      svc,
		fn:       spec.Fn,
		job:      &job{},
		priority: spec.Priority,
		done:     make(chan struct{}),
		settled:  make(chan struct{}),
		onDone:   spec.OnDone,
		onSettle: spec.OnSettle,
	}
	if spec.Timeout > 0 {
		ctx, h.ctxCancel = context.WithTimeout(ctx, spec.Timeout)
	}
	if ctx.Done() != nil {
		h.stopWatch = context.AfterFunc(ctx, func() {
			h.cancel(ctx.Err())
		})
	}
	return h, ctx
}

// Done returns a channel closed when the job's outcome is decided.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job completes and returns its error: nil on
// success, ErrOverloaded if shed, context.DeadlineExceeded on a missed
// deadline, the submission context's error on caller cancellation, a
// *StallError on watchdog cancellation, ErrClosed when the service was
// closed under DrainCancel before the job ran, or a *PanicError when the
// job's code panicked.
func (h *JobHandle) Wait() error {
	<-h.done
	return h.err
}

// Err returns the job's outcome error once Done is closed, and nil before.
func (h *JobHandle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Cancel asks the job to stop: a queued job completes immediately with
// context.Canceled and never runs; a running job is cancelled at its next
// fork/steal/merge checkpoint.  Cancel after completion is a no-op.
func (h *JobHandle) Cancel() { h.cancel(context.Canceled) }

// StallDump returns the all-goroutine stack capture taken by the watchdog
// when it cancelled this job, or nil if the job was not stall-cancelled.
// Valid once Done is closed.
func (h *JobHandle) StallDump() []byte {
	select {
	case <-h.done:
		return h.stall
	default:
		return nil
	}
}

// storeCause records the first cancellation cause; later causes lose.
func (h *JobHandle) storeCause(err error) {
	h.cause.CompareAndSwap(nil, &causeBox{err: err})
}

// causeErr returns the recorded cancellation cause, or nil.
func (h *JobHandle) causeErr() error {
	if b := h.cause.Load(); b != nil {
		return b.err
	}
	return nil
}

// claimCompletion reserves the right to deliver the handle's outcome.
func (h *JobHandle) claimCompletion() bool {
	return h.completed.CompareAndSwap(false, true)
}

// deliver publishes the outcome and unblocks Wait.  It must be called
// exactly once, by the claimCompletion winner.
func (h *JobHandle) deliver(err error) {
	h.err = err
	if h.ctxCancel != nil {
		h.ctxCancel()
	}
	if h.stopWatch != nil {
		h.stopWatch()
	}
	if h.onDone != nil {
		func() {
			defer func() { _ = recover() }()
			h.onDone(err)
		}()
	}
	close(h.done)
}

// runOnSettle fires the settlement hook exactly once.  It must be called
// only from a path that proves no strand of the job can run again: the
// worker's settle (dispatched jobs) or an eviction that won the state CAS
// against dispatch (never-dispatched jobs).
func (h *JobHandle) runOnSettle() {
	if h.onSettle == nil || !h.settleOnce.CompareAndSwap(false, true) {
		return
	}
	func() {
		defer func() { _ = recover() }()
		h.onSettle()
	}()
}

// cancel is the single entry point for every asynchronous cancellation:
// caller Cancel, context expiry (deadline or cancellation), watchdog stall,
// shed, and drain.  Exactly one of three things happens: the job is evicted
// from the queue before ever running, the running job's handle completes
// early (the job unwinds and settles in the background), or — if the
// outcome was already delivered — nothing.
func (h *JobHandle) cancel(cause error) {
	h.storeCause(cause)
	if faultinject.Enabled() {
		faultinject.Perturb(faultinject.ServiceDeadline)
	}
	// The state CASes come first: evicting a queued job before its outcome
	// is delivered keeps it from ever being dispatched, and reading the
	// state orders this goroutine after the admitting call's field stores.
	// A job cancelled while still being admitted is never queued (the
	// admitting call observes the eviction); one evicted from the queue is
	// dropped from the heap lazily, at the next pop.
	evictedNew := h.state.CompareAndSwap(jobStateNew, jobStateEvicted)
	evictedQueued := !evictedNew && h.state.CompareAndSwap(jobStateQueued, jobStateEvicted)
	// Claim before raising the flag: a running job can unwind for this
	// cancellation only after the claim, so its worker never delivers the
	// cause in our place and the cause is always counted.
	claimed := h.claimCompletion()
	h.job.cancelled.Store(true)
	if claimed {
		if h.svc != nil {
			h.svc.countCancel(cause)
		}
		h.deliver(cause)
	}
	if evictedNew || evictedQueued {
		h.runOnSettle() // won the CAS against dispatch: the job never runs
	}
	if evictedQueued {
		h.rt.queuedEvicted(h)
	}
	// Otherwise the job is running (or settling): its checkpoints unwind
	// it, and the worker discards the deposit when it settles.
}

// abandonPreQueue completes a handle whose admission failed before it was
// ever queued, releasing its context resources.  The admission error is
// reported by the admitting call itself; the handle just mirrors it.
func (h *JobHandle) abandonPreQueue(err error) {
	h.state.Store(jobStateEvicted)
	if h.claimCompletion() {
		h.deliver(err)
	}
	h.runOnSettle()
}

// settleFromWorker is called by the worker that finished executing the job
// root (normally, by panic, or by cancellation unwind).  It settles the
// deposit (merge on success, discard otherwise), retires the job from the
// runtime's accounting, and delivers the outcome if no cancellation got
// there first.
func (h *JobHandle) settleFromWorker(w *Worker, d Deposit, p any) {
	rt := w.rt
	claimed := h.claimCompletion()
	var err error
	switch {
	case p != nil:
		// Failed or cancelled: the abort path already discarded the trace's
		// views; d is nil.
		err = containedError(p, h.causeErr())
	case claimed:
		// Success, and no cancellation raced ahead: fold the root deposit
		// into the leftmost views before the outcome is visible, so a
		// submitter that observes Done reads fully merged reducer values.
		func() {
			defer func() {
				if mp := recover(); mp != nil {
					err = containedError(wrapPanic(mp), nil)
				}
			}()
			if h.merge != nil {
				h.merge(d)
			} else {
				rt.reducers.Discard(w, d)
			}
		}()
	default:
		// A cancellation outran the finish: no result after Done, so the
		// deposit is handed back to the mechanism instead of merged.
		rt.reducers.Discard(w, d)
	}
	// Every strand has unwound (the root's joins resolved before the worker
	// returned).  Merge before settle (teardown may unregister the job's
	// reducers); settle and retire before deliver, so a submitter returning
	// from Wait observes the job fully retired.
	h.runOnSettle()
	rt.retire(h)
	if claimed {
		h.deliver(err)
	}
}

// containedError translates a root's contained panic value into the error
// its handle reports: the cancellation token becomes the cancellation
// cause (context.Canceled when none was recorded), anything else is the
// already-wrapped *PanicError.
func containedError(p any, cancelErr error) error {
	if p == errJobCancelled {
		if cancelErr != nil {
			return cancelErr
		}
		return context.Canceled
	}
	if pe, ok := p.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: p}
}

// jobQueue is the priority heap behind the admission queue: higher Priority
// first, FIFO within a priority (by admission sequence).  Evicted entries
// stay in the heap and are skipped at pop.
type jobQueue []*JobHandle

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*JobHandle)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return h
}

// enqueueLocked admits h to the queue.  It reports false when a
// cancellation evicted h while it was being admitted (the handle has
// already completed with the cause).  Caller holds rt.mu and has checked
// rt.closed; it signals the workers after unlocking.
func (rt *Runtime) enqueueLocked(h *JobHandle) bool {
	if !h.state.CompareAndSwap(jobStateNew, jobStateQueued) {
		return false
	}
	rt.seq++
	h.seq = rt.seq
	heap.Push(&rt.queue, h)
	rt.queuedLive.Add(1)
	rt.unsettled++
	if s := h.svc; s != nil {
		s.queued.Add(1)
		s.admitted.Add(1)
	}
	return true
}

// pop takes the highest-priority live queued job, transitioning it to
// running.  Called by idle workers; the nil fast path is one atomic load.
func (rt *Runtime) pop() *JobHandle {
	if rt.queuedLive.Load() == 0 {
		return nil
	}
	rt.mu.Lock()
	for rt.queue.Len() > 0 {
		h := heap.Pop(&rt.queue).(*JobHandle)
		if !h.state.CompareAndSwap(jobStateQueued, jobStateRunning) {
			// Evicted entry surfacing at the top: drop it.
			if rt.heapDead > 0 {
				rt.heapDead--
			}
			continue
		}
		rt.queuedLive.Add(-1)
		rt.running[h] = struct{}{}
		if s := h.svc; s != nil {
			s.queued.Add(-1)
			s.runningCnt.Add(1)
		}
		rt.cond.Broadcast()
		rt.mu.Unlock()
		if faultinject.Enabled() {
			faultinject.Perturb(faultinject.ServiceDispatch)
		}
		h.job.progress.Add(1) // dispatch counts as progress
		return h
	}
	rt.mu.Unlock()
	return nil
}

// queuedEvicted retires a queued handle evicted by an asynchronous
// cancellation (deadline, caller cancel, drain).
func (rt *Runtime) queuedEvicted(h *JobHandle) {
	rt.mu.Lock()
	rt.evictedLocked(h)
	rt.mu.Unlock()
	if h.svc != nil {
		h.svc.updateSpin()
	}
}

// evictedLocked retires a queued job that never ran, and compacts the heap
// when dead entries dominate, so a long-lived service under heavy shedding
// does not pin evicted handles.  Caller holds rt.mu.
func (rt *Runtime) evictedLocked(h *JobHandle) {
	rt.queuedLive.Add(-1)
	rt.heapDead++
	rt.unsettled--
	if s := h.svc; s != nil {
		s.queued.Add(-1)
	}
	if rt.heapDead > 32 && rt.heapDead > len(rt.queue)/2 {
		live := rt.queue[:0]
		for _, q := range rt.queue {
			if q.state.Load() == jobStateQueued {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(rt.queue); i++ {
			rt.queue[i] = nil
		}
		rt.queue = live
		heap.Init(&rt.queue)
		rt.heapDead = 0
	}
	rt.cond.Broadcast()
	close(h.settled)
}

// retire removes a dispatched job from the runtime's accounting once every
// branch has unwound and its deposit is settled.
func (rt *Runtime) retire(h *JobHandle) {
	h.state.Store(jobStateSettled)
	rt.mu.Lock()
	delete(rt.running, h)
	rt.unsettled--
	rt.cond.Broadcast()
	rt.mu.Unlock()
	if s := h.svc; s != nil {
		s.settled.Add(1)
		s.runningCnt.Add(-1)
		s.updateSpin()
	}
	close(h.settled)
}
