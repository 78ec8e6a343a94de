package hypermap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spa"
)

// Config configures the hypermap engine.
type Config struct {
	// Workers sizes the per-worker instrumentation.
	Workers int
	// Timing enables duration measurement in the overhead instrumentation.
	Timing bool
	// CountLookups enables lookup counting.
	CountLookups bool
	// InitialBuckets is the initial size hint for newly created hypermaps.
	// The Cilk Plus runtime starts its hash tables small and grows them;
	// a value of 0 keeps Go's default behaviour.
	InitialBuckets int
	// DirectoryShards is the number of reducer-directory shards; it is
	// rounded up to a power of two.  Zero sizes the directory from
	// Workers.  Tests pin it to 1 to make slot recycling deterministic.
	DirectoryShards int
}

// HM is the hypermap reducer engine (the Cilk Plus baseline mechanism).
// The concrete name matters to the typed reducer handles: they capture *HM
// at construction and call its LookupWord directly, mirroring the
// memory-mapped engine's *core.MM, so neither mechanism pays an interface
// dispatch on a handle-cache miss.
type HM struct {
	cfg Config
	rec *metrics.Recorder

	// dir is the sharded reducer directory shared with the memory-mapped
	// engine's implementation: registration, unregistration and the live
	// count run on its lock-free paths, so the Figure comparisons measure
	// the lookup structures rather than a registry mutex.
	dir *core.Directory

	// initMu guards attach-time bookkeeping only (the worker list and the
	// per-worker counter resize in WorkerInit).
	initMu sync.Mutex
	// workers is the RCU-published list of attached per-worker states, so
	// Unregister can publish view invalidations without a lock.
	workers atomic.Pointer[[]*hmWorker]

	// countLookups is the flag typed handles snapshot at construction to
	// decide whether to bypass their view caches (see CountingLookups).
	countLookups bool
	// nworkers is the number of per-worker structures (see Workers);
	// guarded by initMu.
	nworkers int

	// elisions counts never-written views the hypermerge skipped, the
	// hypermap counterpart of metrics.MergePipeline.IdentityElisions.
	elisions metrics.PaddedCounter

	// fastHits, fastMisses and fastCold count LookupWord's outcomes (see
	// lookupfast.go), mirroring the memory-mapped engine's counters.
	fastHits   metrics.PaddedCounter
	fastMisses metrics.PaddedCounter
	fastCold   metrics.PaddedCounter

	// mergeInflight counts hypermerges (Merge and MergeRootDeposit calls)
	// currently executing; part of the engine's quiescence invariant.
	mergeInflight atomic.Int64
}

// hmWorker is the per-worker state: the user hypermap of the trace the
// worker is currently executing.
type hmWorker struct {
	eng *HM
	w   *sched.Worker
	// user is the user hypermap: reducer address → local view.
	user *hashTable
}

// entry pairs a local view with the reducer that owns it.  The view is
// stored as its packed single-word representation (core.Reducer.BoxView
// reassembles the interface value) rather than as a two-word interface, so
// both mechanisms share one boxing strategy; unlike the 16-byte SPA slot,
// though, the written flag lives in an explicit byte (24 bytes per entry)
// rather than in the stamp's low bits — the baseline keeps plain loads and
// stores on its mutable-in-place entries.  The owner stamp plays the role
// the monoid pointer plays in Cilk Plus (it carries the monoid) and
// additionally lets a lookup detect that an entry at a recycled address
// belongs to a retired reducer.  written mirrors the SPA slots' written
// flag: entries never handed out for mutation still hold the monoid
// identity and are elided by the hypermerge.
type entry struct {
	view    unsafe.Pointer
	owner   *core.Reducer
	written bool
}

// hmTrace identifies an active trace.  Traces nest when a worker helps at a
// stalled join, so the token saves the suspended outer trace's user
// hypermap for EndTrace to restore.
type hmTrace struct {
	ws    *hmWorker
	saved *hashTable
	// ended makes the token single-shot: the scheduler's abort path may
	// call EndTrace defensively on a trace that already ended, and the
	// second call must not deposit (and then discard) the restored outer
	// trace's hypermap.
	ended bool
}

// Engine is the name this engine was originally exported under; HM is the
// canonical name.  The alias keeps existing callers compiling.
type Engine = HM

// Deposit is a deposited hypermap: view transferal in the hypermap scheme
// simply hands over the map.
type Deposit struct {
	views *hashTable
}

// Len returns the number of deposited views.
func (d *Deposit) Len() int {
	if d.views == nil {
		return 0
	}
	return d.views.len()
}

// New creates a hypermap engine.
func New(cfg Config) *HM {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	e := &HM{
		cfg:      cfg,
		rec:      metrics.NewRecorder(cfg.Workers),
		nworkers: cfg.Workers,
	}
	e.dir = core.NewDirectory(core.DirectoryConfig{
		Shards:  cfg.DirectoryShards,
		Workers: cfg.Workers,
	})
	e.rec.SetTiming(cfg.Timing)
	e.countLookups = cfg.CountLookups
	return e
}

// publishViewInvalidation bumps every attached worker's view epoch so no
// typed handle keeps serving a cached view after its reducer is
// unregistered.
func (e *HM) publishViewInvalidation() {
	if ws := e.workers.Load(); ws != nil {
		for _, s := range *ws {
			s.w.PublishViewInvalidation()
		}
	}
}

// Name implements core.Engine.
func (e *HM) Name() string { return "Cilk Plus (hypermap)" }

// newHypermap allocates an empty user hypermap.
func (e *HM) newHypermap() *hashTable {
	return newHashTable(e.cfg.InitialBuckets)
}

// --- registration and lookup ---

// Register implements core.Engine: a lock-free slot allocation in the
// sharded directory.
func (e *HM) Register(m core.Monoid) (*core.Reducer, error) {
	if m == nil {
		return nil, errors.New("hypermap: nil monoid")
	}
	return e.dir.Register(e, m)
}

// Unregister implements core.Engine.  The directory's compare-and-swap is
// the registry identity check (got == r): a double-unregister after slot
// reuse can never delete another live reducer's entry or free an address
// twice.  A successful unregister publishes a view invalidation so every
// context re-resolves its cached view on the next lookup.  As in the
// memory-mapped engine, a worker still holding the retired reducer's
// hypermap entry for the current trace keeps reading that (doomed) view
// until the trace ends; the owner stamp keeps it invisible to every other
// reducer.
func (e *HM) Unregister(r *core.Reducer) {
	if r == nil || r.Engine() != core.Engine(e) {
		return
	}
	if e.dir.Unregister(r) {
		e.publishViewInvalidation()
	}
	core.MarkRetired(r)
}

// Registered returns the number of live reducers.  Lock-free.
func (e *HM) Registered() int { return e.dir.Live() }

// Directory exposes the sharded reducer directory (for tests and
// diagnostics).
func (e *HM) Directory() *core.Directory { return e.dir }

// DirectoryStats returns a snapshot of the directory's shard layout and
// contention counters.
func (e *HM) DirectoryStats() metrics.DirectoryStats { return e.dir.Stats() }

// Workers implements core.Engine: the number of per-worker structures
// currently maintained (construction size, grown when a larger runtime
// attaches).
func (e *HM) Workers() int {
	e.initMu.Lock()
	defer e.initMu.Unlock()
	return e.nworkers
}

// lookupSlow creates and inserts an identity view for r on a lookup miss;
// mutable stamps the entry's written bit.
func (e *HM) lookupSlow(w *sched.Worker, ws *hmWorker, r *core.Reducer, mutable bool) any {
	if !e.dir.Valid(r) {
		// A retired handle: serve the frozen leftmost value, matching a
		// serial lookup after unregistration.
		return r.Value()
	}
	if ent := ws.user.lookup(r.Addr()); ent != nil {
		// A stale entry from a retired occupant of this recycled address;
		// drop its in-flight view before installing r's identity view.
		ws.user.remove(r.Addr())
	}
	// Chaos point for a monoid whose Identity blows up: fired before the
	// entry is inserted, so a contained identity panic leaves the worker's
	// hypermap exactly as it was.
	faultinject.Check(faultinject.MonoidIdentity)
	start := e.rec.Start()
	view := r.Monoid().Identity()
	word := r.UnboxView(view)
	e.rec.Stop(w.ID(), metrics.ViewCreation, start)

	start = e.rec.Start()
	ws.user.insert(r.Addr(), entry{view: word, owner: r, written: mutable})
	e.rec.Stop(w.ID(), metrics.ViewInsertion, start)
	return view
}

// --- sched.ReducerRuntime hooks ---

// WorkerInit implements sched.ReducerRuntime.  It runs once per worker
// while the attaching runtime is being constructed — before any of that
// runtime's tasks execute — so it grows the per-worker instrumentation to
// the runtime's actual worker count, which the recorder indexes by worker
// ID directly.  An engine must not be attached to a new runtime while a
// previously attached one is executing: the resize would race with that
// runtime's lock-free recorder writes.  (Sessions couple one engine to one
// runtime, so no current caller does this.)
func (e *HM) WorkerInit(w *sched.Worker) {
	ws := &hmWorker{eng: e, w: w, user: e.newHypermap()}
	w.SetLocal(ws)
	e.initMu.Lock()
	if n := w.Runtime().Workers(); n > e.nworkers {
		e.rec.EnsureWorkers(n)
		e.nworkers = n
	}
	// Republish the worker list copy-on-write: publication sweeps iterate
	// it lock-free.
	var grown []*hmWorker
	if cur := e.workers.Load(); cur != nil {
		grown = append(grown, *cur...)
	}
	grown = append(grown, ws)
	e.workers.Store(&grown)
	e.initMu.Unlock()
}

// BeginTrace implements sched.ReducerRuntime.  A stolen frame starts with
// an empty user hypermap; the suspended trace's hypermap (non-empty when
// the worker is helping at a stalled join) is saved in the trace token.
func (e *HM) BeginTrace(w *sched.Worker) sched.Trace {
	ws, _ := w.Local().(*hmWorker)
	if ws == nil {
		return &hmTrace{}
	}
	tr := &hmTrace{ws: ws, saved: ws.user}
	ws.user = e.newHypermap()
	w.InvalidateLookupCache()
	return tr
}

// EndTrace implements sched.ReducerRuntime.  View transferal in the
// hypermap scheme deposits the user hypermap itself, then restores the
// suspended outer trace's hypermap.
func (e *HM) EndTrace(w *sched.Worker, tr sched.Trace) sched.Deposit {
	ws, _ := w.Local().(*hmWorker)
	if ws == nil {
		return nil
	}
	ht, _ := tr.(*hmTrace)
	if ht != nil {
		if ht.ended {
			return nil
		}
		ht.ended = true
	}
	var dep *Deposit
	if ws.user.len() != 0 {
		start := e.rec.Start()
		dep = &Deposit{views: ws.user}
		ws.user = nil
		e.rec.Stop(w.ID(), metrics.ViewTransferal, start)
	}
	if ht != nil && ht.saved != nil {
		ws.user = ht.saved
	} else if ws.user == nil {
		ws.user = e.newHypermap()
	}
	w.InvalidateLookupCache()
	if dep == nil {
		return nil
	}
	return dep
}

// Merge implements sched.ReducerRuntime: the hypermerge.  The worker walks
// the deposited hypermap; never-written entries are elided outright (the
// view still equals the monoid identity, so current ⊗ e = current — no
// reduce call, no insertion); for every other element it looks up the
// corresponding view in its own user hypermap and either reduces the pair
// (current ⊗ deposited) or inserts the deposited entry wholesale.
func (e *HM) Merge(w *sched.Worker, tr sched.Trace, d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil {
		return
	}
	ws, _ := w.Local().(*hmWorker)
	if ws == nil {
		return
	}
	e.mergeInflight.Add(1)
	defer e.mergeInflight.Add(-1)
	start := e.rec.Start()
	reduces := int64(0)
	inserts := int64(0)
	elisions := int64(0)
	dep.views.forEach(func(addr spa.Addr, depEnt *entry) {
		if !depEnt.written {
			elisions++
			return
		}
		if curEnt := ws.user.lookup(addr); curEnt != nil {
			if curEnt.owner == depEnt.owner {
				r := depEnt.owner
				// Chaos point for a monoid whose Reduce blows up
				// mid-hypermerge; views are heap-backed here, so a contained
				// reduce panic leaks nothing — the dropped deposit falls to
				// the garbage collector.
				faultinject.Check(faultinject.MonoidReduce)
				combined := r.Monoid().Reduce(r.BoxView(curEnt.view), r.BoxView(depEnt.view))
				curEnt.view = r.UnboxView(combined)
				curEnt.written = true
				reduces++
				return
			}
			// Owner stamps differ: the address was recycled while one of
			// the views was in flight, and at most one owner can still be
			// registered.  Drop the stale side.
			if depEnt.owner == nil || !e.dir.Valid(depEnt.owner) {
				return
			}
			ws.user.remove(addr)
		}
		insStart := e.rec.Start()
		ws.user.insert(addr, *depEnt)
		e.rec.Stop(w.ID(), metrics.ViewInsertion, insStart)
		inserts++
	})
	dep.views = nil
	w.InvalidateLookupCache()
	e.rec.Stop(w.ID(), metrics.Hypermerge, start)
	if reduces > 1 {
		e.rec.RecordCount(w.ID(), metrics.Hypermerge, reduces-1)
	}
	if elisions > 0 {
		e.elisions.Add(elisions)
	}
	_ = inserts
}

// MergeRootDeposit implements core.Engine.  Each entry's owner stamp
// resolves the reducer directly — no registry copy, no lock — and the
// directory's epoch-stamped Valid check drops views whose reducer was
// unregistered while they were in flight.  Never-written entries are
// elided exactly as in Merge.
func (e *HM) MergeRootDeposit(d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil || dep.views == nil {
		return
	}
	e.mergeInflight.Add(1)
	defer e.mergeInflight.Add(-1)
	dep.views.forEach(func(addr spa.Addr, ent *entry) {
		if ent.owner == nil || !e.dir.Valid(ent.owner) {
			return
		}
		if !ent.written {
			e.elisions.Add(1)
			return
		}
		core.AbsorbView(ent.owner, ent.owner.BoxView(ent.view))
	})
	dep.views = nil
}

// Discard implements sched.ReducerRuntime: release a deposit that will
// never be merged — the containment path for a job that panicked or was
// cancelled between a trace's EndTrace and its join.  Hypermap views are
// heap-backed and the deposit is the hash table itself, so dropping the
// reference is the whole release; the garbage collector reclaims the views.
// A nil or already-consumed deposit is a no-op.
func (e *HM) Discard(w *sched.Worker, d sched.Deposit) {
	dep, _ := d.(*Deposit)
	if dep == nil {
		return
	}
	dep.views = nil
}

// Quiescent implements core.Engine: verify that no job left engine state in
// flight.  The hypermap engine holds no pooled resources, so quiescence is
// just "no hypermerge executing and every worker's user hypermap empty".
// It must only be called between jobs; the hypermaps are owner-local.
func (e *HM) Quiescent() error {
	if n := e.mergeInflight.Load(); n != 0 {
		return fmt.Errorf("hypermap: %d hypermerges still in flight", n)
	}
	if list := e.workers.Load(); list != nil {
		for i, ws := range *list {
			if n := ws.user.len(); n != 0 {
				return fmt.Errorf("hypermap: worker %d holds %d views", i, n)
			}
		}
	}
	return nil
}

// IdentityElisions reports the number of never-written views the
// hypermerge elided since the last reset (the hypermap counterpart of the
// memory-mapped engine's MergePipeline.IdentityElisions).
func (e *HM) IdentityElisions() int64 { return e.elisions.Load() }

// --- instrumentation ---

// Overheads implements core.Engine.
func (e *HM) Overheads() metrics.Breakdown { return e.rec.Snapshot() }

// ResetOverheads implements core.Engine.
func (e *HM) ResetOverheads() {
	e.rec.Reset()
	e.elisions.Store(0)
	e.fastHits.Store(0)
	e.fastMisses.Store(0)
	e.fastCold.Store(0)
}

// SetTiming implements core.Engine.
func (e *HM) SetTiming(on bool) { e.rec.SetTiming(on) }

// SetCountLookups implements core.Engine.
func (e *HM) SetCountLookups(on bool) { e.countLookups = on }

// CountingLookups implements core.Engine.
func (e *HM) CountingLookups() bool { return e.countLookups }

// WorkerViewCount reports the number of views in worker i's user hypermap
// (diagnostic; it should be zero between runs).
func (e *HM) WorkerViewCount(i int) int {
	ws := e.workers.Load()
	if ws == nil || i < 0 || i >= len(*ws) {
		return 0
	}
	return (*ws)[i].user.len()
}

var _ core.Engine = (*HM)(nil)
