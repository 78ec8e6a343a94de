package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/reducers"
)

// batchSystem is one engine's instance of a closed-loop workload: a
// session with the workload's reducers registered.
type batchSystem struct {
	side side
	sess *core.Session
	// job runs job i: untimed preparation (resetting reducers), the timed
	// call into the system, and the untimed check against the serial
	// elision.  It returns the timed duration.
	job func(i int, jt *jobTrace) (time.Duration, error)
	// close unregisters the workload's reducers, recording an
	// "unregister" span per reducer when tr is non-nil.
	close func(tr *tracer)
}

// batchSpec describes a closed-loop workload.
type batchSpec struct {
	name string
	// unit names the work unit; work is the number of units per job.
	unit string
	work float64
	// warmup is the number of untimed (but checked) jobs each engine runs
	// during setup.
	warmup int
	// shared builds inputs every engine shares (the pbfs graph); it runs
	// inside the timed setup.  May be nil.
	shared func(tr *tracer) error
	// newSystem builds one engine's instance; tr, when non-nil, receives
	// one "register" span per reducer registration.
	newSystem func(s side, opts reducers.EngineOptions, tr *tracer) (*batchSystem, error)
	// probes selects the layer probes of the traced run (see
	// standardProbes) for the layers the workload bypasses.
	probes int
}

// jobTrace is the traced pass's handle into one job: leaf code records
// sampled update chunks as children of the job's "run" span.
type jobTrace struct {
	tr     *tracer
	job    uint64
	parent uint64
	engine string
}

// sampleEvery is the leaf-chunk sampling period of the traced pass.
const sampleEvery = 64

// leaf records one sampled leaf chunk of units updates that started at
// tracer time start.
func (jt *jobTrace) leaf(start int64, units int) {
	jt.tr.record(span{ID: jt.tr.id(), Parent: jt.parent, Job: jt.job, Engine: jt.engine,
		Name: "update_chunk", Start: start, End: jt.tr.now(), Units: int64(units)})
}

// timedRun wraps the timed call into the system: it returns the call's
// duration and, in the traced pass, records it as a span named name whose
// id leaf spans use as their parent.
func timedRun(jt *jobTrace, name string, call func(jt *jobTrace) error) (time.Duration, error) {
	if jt == nil {
		t0 := time.Now()
		err := call(nil)
		return time.Since(t0), err
	}
	inner := *jt
	inner.parent = jt.tr.id()
	start := jt.tr.now()
	t0 := time.Now()
	err := call(&inner)
	d := time.Since(t0)
	jt.tr.record(span{ID: inner.parent, Parent: jt.parent, Job: jt.job, Engine: jt.engine,
		Name: name, Start: start, End: jt.tr.now()})
	return d, err
}

// register wraps one reducer registration, recording a "register" span
// when tr is non-nil.
func register[H any](tr *tracer, engine string, mk func() H) H {
	if tr == nil {
		return mk()
	}
	start := tr.now()
	h := mk()
	tr.record(span{ID: tr.id(), Engine: engine, Name: "register", Start: start, End: tr.now()})
	return h
}

// unregister wraps one reducer unregistration like register.
func unregister(tr *tracer, engine string, closeFn func()) {
	if tr == nil {
		closeFn()
		return
	}
	start := tr.now()
	closeFn()
	tr.record(span{ID: tr.id(), Engine: engine, Name: "unregister", Start: start, End: tr.now()})
}

// engineRun collects one engine's measured jobs.
type engineRun struct {
	times []time.Duration
	tally tally
	layer *layerAcc
}

// batchInstance is one complete set-up of a workload: a system per engine.
type batchInstance struct {
	systems [2]*batchSystem
}

func (in *batchInstance) close(tr *tracer) {
	for _, s := range in.systems {
		if s != nil {
			s.close(tr)
			s.sess.Close()
		}
	}
}

// setupBatch builds the shared inputs and both engines' systems, then runs
// the warm-up jobs.  Warm-up jobs are checked like measured ones.
func setupBatch(spec *batchSpec, cfg config, tr *tracer, t *tally) (*batchInstance, error) {
	if spec.shared != nil {
		if err := spec.shared(tr); err != nil {
			return nil, err
		}
	}
	in := &batchInstance{}
	for i, s := range sides {
		sys, err := spec.newSystem(s, reducers.EngineOptions{}, tr)
		if err != nil {
			in.close(nil)
			return nil, err
		}
		in.systems[i] = sys
	}
	for _, sys := range in.systems {
		for j := 0; j < spec.warmup; j++ {
			_, err := sys.job(-1-j, nil)
			t.record(checkQuiescent(sys.sess, err))
		}
	}
	return in, nil
}

// checkQuiescent folds the session's between-jobs leak check into a job's
// outcome: a job that leaves the runtime or engine holding resources
// counts as failed.
func checkQuiescent(s *core.Session, jobErr error) error {
	if jobErr != nil {
		return jobErr
	}
	if err := s.Quiescent(); err != nil {
		return fmt.Errorf("not quiescent after job: %w", err)
	}
	return nil
}

// setupReps is how many times an untraced run sets the workload up.  The
// measurement is split into that many stretches, each on a fresh set-up
// that is torn down after it, so the set-ups sample the host across the
// whole run as the job times do; setup_s is their median.
const setupReps = 8

// timedSetup collects the garbage of earlier set-ups, untimed, then sets
// the workload up and returns the instance and its set-up time in seconds.
func timedSetup(spec *batchSpec, cfg config, tr *tracer, t *tally) (*batchInstance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := setupBatch(spec, cfg, tr, t)
	return in, time.Since(t0).Seconds(), err
}

// closedLoop runs jobs back to back on both engines for d, alternating
// engines in blocks so drift on the host affects both equally.  With tr
// non-nil every job is traced and its counter deltas are accumulated.
func closedLoop(in *batchInstance, d, block time.Duration, tr *tracer, runs *[2]engineRun) {
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		for k := 0; k < 2; k++ {
			e := (round + k) % 2
			sys := in.systems[e]
			run := &runs[e]
			blockEnd := time.Now().Add(block)
			for time.Now().Before(blockEnd) {
				i := len(run.times) + int(run.tally.failed)
				var jt *jobTrace
				var before counters
				var jobSpan uint64
				var jobStart int64
				if tr != nil {
					jobSpan = tr.id()
					jt = &jobTrace{tr: tr, job: jobSpan, parent: jobSpan, engine: sys.side.label}
					before = snapshot(sys.sess.Engine(), sys.sess.Runtime(), nil)
					jobStart = tr.now()
				}
				dur, err := sys.job(i, jt)
				err = checkQuiescent(sys.sess, err)
				if tr != nil {
					tr.record(span{ID: jobSpan, Job: jobSpan, Engine: sys.side.label, Name: "job", Start: jobStart, End: tr.now()})
					run.layer.add(before, snapshot(sys.sess.Engine(), sys.sess.Runtime(), nil), 1)
				}
				run.tally.record(err)
				if err == nil {
					run.times = append(run.times, dur)
				}
			}
		}
	}
}

// blockFor returns the engine-alternation block length of a run.
func blockFor(cfg config) time.Duration {
	if cfg.quick {
		return 20 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// runBatch runs one closed-loop workload.
func runBatch(spec *batchSpec, cfg config, rep io.Writer) (*result, error) {
	var total tally
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	out := metricSet{}
	var runs [2]engineRun
	var setupSecs []float64
	if !cfg.trace {
		for r := 0; r < setupReps; r++ {
			in, secs, err := timedSetup(spec, cfg, nil, &total)
			if err != nil {
				return nil, err
			}
			setupSecs = append(setupSecs, secs)
			closedLoop(in, measure/setupReps, blockFor(cfg), nil, &runs)
			in.close(nil)
		}
		fmt.Fprintf(rep, "setup: median %.4fs of %d set-ups %.4v\n", median(setupSecs), setupReps, setupSecs)
	} else {
		in, _, err := timedSetup(spec, cfg, tr, &total)
		if err != nil {
			return nil, err
		}
		// Untraced calibration first, so the traced pass's slowdown is
		// measured on the same instance: harness.trace_overhead.
		var calib [2]engineRun
		closedLoop(in, measure*3/10, blockFor(cfg), nil, &calib)
		for e := range runs {
			runs[e].layer = newLayerAcc()
			in.systems[e].sess.Engine().SetTiming(true)
		}
		closedLoop(in, measure*7/10, blockFor(cfg), tr, &runs)
		for e := range runs {
			in.systems[e].sess.Engine().SetTiming(false)
			total.merge(calib[e].tally)
			traced, untraced := medianDur(runs[e].times), medianDur(calib[e].times)
			if traced > 0 {
				out.add("harness.trace_overhead."+sides[e].label, "ratio", untraced/traced)
			}
		}
		in.close(tr)
	}
	for e := range runs {
		total.merge(runs[e].tally)
	}

	if !cfg.trace {
		peak := peakRSSMB()
		out.add("setup_s", "s", median(setupSecs))
		out.add("peak_rss_mb", "MB", peak)
		fmt.Fprintf(rep, "peak_rss_mb %.1f MB\n", peak)
		for e, s := range sides {
			reportClosedLoop(rep, out, spec, s.label, runs[e])
		}
		reportRatio(rep, spec.name, runs)
	} else {
		for e, s := range sides {
			runs[e].layer.emitLayers(out, s.label)
			fig8Share(rep, out, s.label, runs[e].layer, 1e6*meanOf(durationsMs(runs[e].times)))
		}
		out.add("harness.mm_over_hm", "ratio", medianDur(runs[0].times)/medianDur(runs[1].times))
		if err := countedPass(spec, out, &total); err != nil {
			return nil, err
		}
		if err := standardProbes(cfg, tr, out, &total, spec.probes); err != nil {
			return nil, err
		}
		emitSpanLayers(out, tr)
		if err := writeSpans(cfg, tr, rep); err != nil {
			return nil, err
		}
	}
	return finish(rep, out, total), nil
}

// blockP99s splits a run's job times, in run order, into blocks of at
// least 1000 jobs (one block when there are fewer) and returns each
// block's p99.  Reporting their median keeps one disturbed stretch of the
// run from moving the tail figure, while each block still has ten jobs
// beyond its p99.
func blockP99s(ms []float64) []float64 {
	nb := max(1, len(ms)/1000)
	size := len(ms) / nb
	out := make([]float64, nb)
	for b := range out {
		out[b] = quantile(ms[b*size:(b+1)*size], 0.99)
	}
	return out
}

// medianDur returns the median of ds in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// reportClosedLoop adds one engine's end-to-end metrics.
func reportClosedLoop(rep io.Writer, out metricSet, spec *batchSpec, label string, run engineRun) {
	ms := durationsMs(run.times)
	p50, p90, blocks := median(ms), quantile(ms, 0.9), blockP99s(ms)
	p99 := median(blocks)
	thr := 0.0
	if p50 > 0 {
		thr = spec.work / (p50 / 1e3)
	}
	out.add("throughput."+label, "1/s", thr)
	out.add("latency_p50_ms."+label, "ms", p50)
	fmt.Fprintf(rep, "%s: jobs=%d failed=%d work/job=%.0f %s throughput=%.4g %s/s job p50=%.4fms p90=%.4fms p99=%.4fms (tails not gated; median of %d block p99s %.4v; tail p%.2f has >=10 beyond in a block of %d)\n",
		label, len(run.times), run.tally.failed, spec.work, spec.unit, thr, spec.unit, p50, p90, p99, len(blocks), blocks,
		tailPercentile(len(ms)/len(blocks)), len(ms)/len(blocks))
	if run.tally.firstErr != nil {
		fmt.Fprintf(rep, "%s: first failure: %v\n", label, run.tally.firstErr)
	}
}

// reportRatio prints the mm-over-hm median job-time ratio, the figure's
// ratio (Fig 5 / Fig 7 / Fig 10).  It is reported, not gated.
func reportRatio(rep io.Writer, name string, runs [2]engineRun) {
	mm, hm := medianDur(runs[0].times), medianDur(runs[1].times)
	if hm > 0 {
		fmt.Fprintf(rep, "ratio %s: mm/hm median job time = %.3f (not gated)\n", name, mm/hm)
	}
}

// fig8Share reports what share of the mean traced job time (in ns) the
// four Fig 8 phase timers account for.
func fig8Share(rep io.Writer, out metricSet, label string, a *layerAcc, meanJobNs float64) {
	if a == nil || a.jobs == 0 || meanJobNs <= 0 {
		return
	}
	phases := float64(a.overheads.Total()) / float64(a.jobs)
	out.add("engine.fig8_share."+label, "ratio", phases/meanJobNs)
	fmt.Fprintf(rep, "%s: Fig 8 phases %.1fus per job = %.1f%% of mean traced job time %.1fus\n",
		label, phases/1e3, 100*phases/meanJobNs, meanJobNs/1e3)
}

// countedPass runs a few jobs on fresh lookup-counting engines, where every
// handle access goes through the engine's counted lookup and its per-context
// cache, to report lookup_cache_hit_rate (and PBFS's lookups per traversal).
func countedPass(spec *batchSpec, out metricSet, t *tally) error {
	for _, s := range sides {
		if spec.shared != nil {
			if err := spec.shared(nil); err != nil {
				return err
			}
		}
		sys, err := spec.newSystem(s, reducers.EngineOptions{CountLookups: true}, nil)
		if err != nil {
			return err
		}
		const jobs = 3
		for j := 0; j < jobs; j++ {
			_, err := sys.job(j, nil)
			t.record(checkQuiescent(sys.sess, err))
		}
		lookups := emitLookupCounts(out, s.label, sys.sess.Engine())
		if spec.name == "pbfs" {
			out.add("pbfs.lookups_per_traversal."+s.label, "count", float64(lookups)/jobs)
		}
		sys.close(nil)
		sys.sess.Close()
	}
	return nil
}

// emitLookupCounts reports lookup_cache_hit_rate from a lookup-counting
// engine and returns its lookup count.
func emitLookupCounts(out metricSet, label string, eng core.Engine) int64 {
	lookups := eng.Lookups()
	if h, ok := eng.(interface{ CacheHits() int64 }); ok && lookups > 0 {
		out.add("lookup_cache_hit_rate."+label, "ratio", float64(h.CacheHits())/float64(lookups))
	}
	return lookups
}

// finish prints the metrics and builds the result.
func finish(rep io.Writer, out metricSet, t tally) *result {
	for _, name := range sortedKeys(out) {
		fmt.Fprintf(rep, "metric %-40s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	frac := 0.0
	if t.attempted > 0 {
		frac = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(rep, "jobs: attempted=%d failed=%d failed_frac=%.4g\n", t.attempted, t.failed, frac)
	if t.firstErr != nil {
		fmt.Fprintf(rep, "first failure: %v\n", t.firstErr)
	}
	return &result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}
}

func sortedKeys(m metricSet) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
