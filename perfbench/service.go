package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// svcShape sizes one service job: a fork-join over leaves leaf strands,
// each spinning the generator spin times before updating one of the job's
// two Add reducers.
type svcShape struct {
	leaves, spin int
}

// svcVariants is how many seeded job inputs the service workloads cycle
// through; their sums are computed serially before the run.
const svcVariants = 8

// svcSums returns the serial elision of a job: the two reducers' sums.
func svcSums(base uint64, sh svcShape) [2]uint64 {
	var s [2]uint64
	for leaf := 0; leaf < sh.leaves; leaf++ {
		s[leaf&1] += svcLeaf(base, leaf, sh.spin)
	}
	return s
}

// svcLeaf is one leaf strand's work and update value.
func svcLeaf(base uint64, leaf, spin int) uint64 {
	x := base + uint64(leaf)
	for i := 0; i < spin; i++ {
		x = xorshift(x)
	}
	return x >> 40
}

// svcSystem is one engine behind a resident service.
type svcSystem struct {
	side side
	eng  core.Engine
	svc  *sched.Service
}

// svcQueue is the service's admission queue bound.  It is larger than the
// default (4x workers) so that a stall of the host at the heavy rate queues
// jobs instead of rejecting them: with the default, ~20 ms stalls rejected
// jobs, and with 64 a longer one still rejected five.  Sustained overload
// still fills it and is rejected.
const svcQueue = 256

// newSvcSystem builds an engine, a runtime and a service with the reject
// admission policy, wired the way the root facade wires them.
func newSvcSystem(s side, workers int, opts reducers.EngineOptions) *svcSystem {
	eng := reducers.NewEngine(s.mech, workers, opts)
	rt := sched.New(sched.Config{Workers: workers, Reducers: eng})
	svc := sched.NewService(rt, sched.ServiceConfig{
		Queue:           svcQueue,
		Admit:           sched.AdmitReject,
		AdaptiveParking: true,
		RootMerge:       eng.MergeRootDeposit,
		Quiesce:         eng.Quiescent,
	})
	return &svcSystem{side: s, eng: eng, svc: svc}
}

// svcInputs are the seeded job inputs and their serial sums.
type svcInputs struct {
	shape svcShape
	bases [svcVariants]uint64
	want  [svcVariants][2]uint64
}

func newSvcInputs(seed int64, stream int, sh svcShape) *svcInputs {
	in := &svcInputs{shape: sh}
	for k := range in.bases {
		in.bases[k] = variantBase(seed, stream, k)
		in.want[k] = svcSums(in.bases[k], sh)
	}
	return in
}

// legResult is one open-loop leg: jobs arrivals at a fixed rate.
type legResult struct {
	rate float64
	jobs int
	lat  []float64 // ms from due time to Wait return, completed jobs
	late []float64 // µs the generator submitted after the due time
	// rejected counts admission rejects (reject is the first); tally
	// counts every other job, failed when it errored or was wrong.
	rejected int
	reject   error
	tally    tally
	growing  bool
	// queue depth means over the first and last quarter of submissions
	depthHead, depthTail float64
	layer                *layerAcc
}

// missed returns the leg's latencies with every rejected or failed job
// counted as missing any limit (+Inf).
func (l *legResult) missed() []float64 {
	xs := append([]float64(nil), l.lat...)
	for i := int64(0); i < l.tally.failed+int64(l.rejected); i++ {
		xs = append(xs, math.Inf(1))
	}
	return xs
}

// recordInto folds the leg's jobs into t, counting each admission reject
// as a failed job.
func (l *legResult) recordInto(t *tally) {
	t.merge(l.tally)
	for i := 0; i < l.rejected; i++ {
		t.record(l.reject)
	}
}

// p returns the q-quantile of missed().
func (l *legResult) p(q float64) float64 { return quantile(l.missed(), q) }

// jobRec carries one job's handles and timestamps from the worker that ran
// it to the waiter; Wait orders the writes before the reads.
type jobRec struct {
	js             *core.JobSession
	want           [2]uint64
	a, b           *reducers.Add[uint64]
	fnStart, fnEnd time.Time
	// job and fnSpan are the traced pass's job and job-fn span ids.
	job, fnSpan uint64
}

// newJob builds job i: a fresh JobSession, and a root closure that
// registers the job's two reducers through it, runs the fork-join and
// records its start and end.  The session is retired when the job
// settles, as the root facade does.  inject pre-loads one reducer with 1.
func (s *svcSystem) newJob(in *svcInputs, i int, inject bool, tr *tracer) (*jobRec, sched.JobSpec) {
	k := i % svcVariants
	base := in.bases[k]
	rec := &jobRec{js: core.NewJobSession(s.eng), want: in.want[k]}
	if tr != nil {
		rec.job, rec.fnSpan = tr.id(), tr.id()
	}
	spec := sched.JobSpec{
		Fn: func(c *sched.Context) {
			rec.fnStart = time.Now()
			rec.a = s.registerAdd(rec.js, tr, rec.job, rec.fnSpan)
			rec.b = s.registerAdd(rec.js, tr, rec.job, rec.fnSpan)
			if inject {
				rec.a.SetValue(1)
			}
			a, b, spin := rec.a, rec.b, in.shape.spin
			c.ParallelForGrain(0, in.shape.leaves, 1, func(c *sched.Context, leaf int) {
				v := svcLeaf(base, leaf, spin)
				if leaf&1 == 0 {
					a.Add(c, v)
				} else {
					b.Add(c, v)
				}
			})
			rec.fnEnd = time.Now()
		},
		OnSettle: func() {
			if tr == nil {
				rec.js.Retire()
				return
			}
			t0 := tr.now()
			rec.js.Retire()
			tr.record(span{ID: tr.id(), Parent: rec.job, Job: rec.job, Engine: s.side.label, Name: "unregister", Start: t0, End: tr.now()})
		},
	}
	return rec, spec
}

// check compares a finished job's sums with their serial elision; waitErr
// is the job's Wait result.
func (rec *jobRec) check(label string, i int, waitErr error) error {
	if waitErr != nil {
		return fmt.Errorf("service %s job %d: %w", label, i, waitErr)
	}
	if got := [2]uint64{rec.a.Value(), rec.b.Value()}; got != rec.want {
		return fmt.Errorf("service %s job %d: sums %v, serial elision %v", label, i, got, rec.want)
	}
	return nil
}

// sequential runs jobs one at a time through Submit and Wait (a closed
// loop with one job in flight) and returns each correct job's latency in
// ms, from Submit to Wait's return.  inject pre-loads job 1's reducer.
func (s *svcSystem) sequential(in *svcInputs, jobs, jobBase int, inject bool) ([]float64, tally) {
	var t tally
	var lat []float64
	for i := jobBase; i < jobBase+jobs; i++ {
		rec, spec := s.newJob(in, i, inject && i == jobBase+1, nil)
		t0 := time.Now()
		h, err := s.svc.Submit(context.Background(), spec)
		if err != nil {
			rec.js.Retire()
			t.record(fmt.Errorf("service %s sequential job %d: submit: %w", s.side.label, i, err))
			continue
		}
		err = rec.check(s.side.label, i, h.Wait())
		d := time.Since(t0)
		t.record(err)
		if err == nil {
			lat = append(lat, float64(d)/1e6)
		}
	}
	return lat, t
}

// capacity keeps inflight jobs in flight through Submit and Wait for d (a
// closed loop) and returns the completed jobs per second.
func (s *svcSystem) capacity(in *svcInputs, inflight int, d time.Duration, jobBase int) (float64, tally) {
	var mu sync.Mutex
	var t tally
	var wg sync.WaitGroup
	completed := 0
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := jobBase + g; time.Now().Before(deadline); i += inflight {
				rec, spec := s.newJob(in, i, false, nil)
				h, err := s.svc.Submit(context.Background(), spec)
				if err != nil {
					rec.js.Retire()
					err = fmt.Errorf("service %s closed-loop job %d: submit: %w", s.side.label, i, err)
				} else {
					err = rec.check(s.side.label, i, h.Wait())
				}
				mu.Lock()
				t.record(err)
				if err == nil {
					completed++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return float64(completed) / time.Since(start).Seconds(), t
}

// leg submits jobs arrivals at rate per second from one generator
// goroutine, timing each job from its due time to Wait's return.  jobBase
// offsets job indices so legs use different inputs.
func (s *svcSystem) leg(in *svcInputs, rate float64, jobs, jobBase int, inject bool, tr *tracer) *legResult {
	res := &legResult{rate: rate, jobs: jobs}
	lat := make([]float64, jobs)
	errs := make([]error, jobs)
	done := make([]bool, jobs)
	depths := make([]float64, jobs)
	res.late = make([]float64, jobs)
	var wg sync.WaitGroup
	var before counters
	if tr != nil {
		before = snapshot(s.eng, s.svc.Runtime(), s.svc)
	}
	tick := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < jobs; i++ {
		due := start.Add(time.Duration(float64(i) * tick))
		sleepUntil(due)
		subStart := time.Now()
		res.late[i] = float64(subStart.Sub(due)) / 1e3
		depths[i] = float64(s.svc.Stats().QueueDepth)
		rec, spec := s.newJob(in, jobBase+i, inject && i == 1, tr)
		jobID := rec.job
		h, err := s.svc.Submit(context.Background(), spec)
		subEnd := time.Now()
		if err != nil {
			rec.js.Retire()
			if errors.Is(err, sched.ErrOverloaded) {
				res.rejected++
				if res.reject == nil {
					res.reject = fmt.Errorf("service %s rate %.0f job %d: %w", s.side.label, rate, i, err)
				}
			} else {
				errs[i] = fmt.Errorf("service %s rate %.0f job %d: submit: %w", s.side.label, rate, i, err)
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werr := rec.check(s.side.label, i, h.Wait())
			end := time.Now()
			errs[i] = werr
			if werr == nil {
				lat[i] = float64(end.Sub(due)) / 1e6
				done[i] = true
			}
			if tr != nil {
				lab := s.side.label
				tr.record(span{ID: jobID, Job: jobID, Engine: lab, Name: "job", Start: tr.at(due), End: tr.at(end)})
				tr.record(span{ID: tr.id(), Parent: jobID, Job: jobID, Engine: lab, Name: "generator_late", Start: tr.at(due), End: tr.at(subStart)})
				tr.record(span{ID: tr.id(), Parent: jobID, Job: jobID, Engine: lab, Name: "submit", Start: tr.at(subStart), End: tr.at(subEnd)})
				if !rec.fnStart.IsZero() {
					tr.record(span{ID: tr.id(), Parent: jobID, Job: jobID, Engine: lab, Name: "queue_wait", Start: tr.at(subEnd), End: tr.at(rec.fnStart)})
					tr.record(span{ID: rec.fnSpan, Parent: jobID, Job: jobID, Engine: lab, Name: "job_fn", Start: tr.at(rec.fnStart), End: tr.at(rec.fnEnd)})
					tr.record(span{ID: tr.id(), Parent: jobID, Job: jobID, Engine: lab, Name: "settle", Start: tr.at(rec.fnEnd), End: tr.at(end)})
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		res.tally.record(errs[i])
		if done[i] {
			res.lat = append(res.lat, lat[i])
		}
	}
	if tr != nil {
		res.layer = newLayerAcc()
		res.layer.add(before, snapshot(s.eng, s.svc.Runtime(), s.svc), jobs)
	}
	q := jobs / 4
	if q > 0 {
		res.depthHead = meanOf(depths[:q])
		res.depthTail = meanOf(depths[jobs-q:])
		res.growing = res.depthTail-res.depthHead > 1
	}
	return res
}

// sleepUntil blocks until t.  A runtime timer alone is not precise
// enough: when its P is idle the Go runtime waits for timers in epoll_wait,
// whose millisecond timeout made the generator run about 0.5 ms late on
// average.  The last 2 ms are therefore slept in the nanosleep system call;
// sleeping all of a long gap there would hold the generator's P in the
// system call, which was seen to keep a second worker from joining jobs.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// registerAdd registers one job-scoped Add reducer, recording a "register"
// span under the job's fn span in the traced pass.
func (s *svcSystem) registerAdd(js *core.JobSession, tr *tracer, job, parent uint64) *reducers.Add[uint64] {
	if tr == nil {
		return reducers.NewAdd[uint64](js)
	}
	t0 := tr.now()
	a := reducers.NewAdd[uint64](js)
	tr.record(span{ID: tr.id(), Parent: parent, Job: job, Engine: s.side.label, Name: "register", Start: t0, End: tr.now()})
	return a
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serviceParams fixes the service-open workload.
type serviceParams struct {
	shape svcShape
	// heavy is the fixed heavy arrival rate (jobs/s) latency is reported
	// at; it is also the ladder's first rung.  ladder holds the higher
	// rungs slo_rate is read from.
	heavy  float64
	ladder []float64
	// limitMs is the p99 latency limit a rung must meet.
	limitMs float64
	// blockJobs is the arrivals per leg: heavy-rate blocks and ladder
	// rungs alike, 1000 so that ten samples lie beyond each leg's p99.
	// heavyBlocks is the number of heavy-rate blocks per engine, and
	// warmupJobs run one at a time during set-up.
	blockJobs, heavyBlocks, warmupJobs int
	// seqBlocks blocks of seqJobs jobs per engine, one job in flight,
	// give latency_p50_ms.
	seqBlocks, seqJobs int
	// capacity is how long the closed-loop capacity leg runs, with
	// inflight jobs kept in flight.
	capacity time.Duration
	inflight int
}

// serviceParamsFor sizes the workload to the run's seconds: per engine,
// 1/16 of them in the capacity leg, about 5/24 in heavy-rate blocks, 3000
// one-at-a-time jobs (about 3 s) and the rest in the ladder (which stops at
// an engine's first failing rung).
func serviceParamsFor(cfg config) serviceParams {
	if cfg.quick {
		return serviceParams{shape: svcShape{leaves: 16, spin: 200}, heavy: 300, ladder: []float64{600},
			limitMs: 50, blockJobs: 40, heavyBlocks: 1, warmupJobs: 20, seqBlocks: 2, seqJobs: 20,
			capacity: 100 * time.Millisecond, inflight: 8}
	}
	p := serviceParams{
		shape:      svcShape{leaves: 64, spin: 10000},
		heavy:      400,
		ladder:     []float64{600, 800},
		limitMs:    5,
		blockJobs:  1000,
		warmupJobs: 100,
		seqBlocks:  6,
		seqJobs:    500,
		capacity:   time.Duration(cfg.seconds / 16 * float64(time.Second)),
		inflight:   4 * runtime.GOMAXPROCS(0),
	}
	p.heavyBlocks = max(1, int(cfg.seconds*5/24*p.heavy/float64(p.blockJobs)+0.5))
	return p
}

// capacityBlocks is how many blocks the capacity leg is split into.
const capacityBlocks = 3

// heavyResult pools one engine's heavy-rate blocks.
type heavyResult struct {
	lat, late []float64
	blockP99  []float64
	jobs      int
	rejected  int
	layer     *layerAcc
}

// p50 is the median latency over every block, rejected and failed jobs
// counting as +Inf.
func (h *heavyResult) p50() float64 { return quantile(h.lat, 0.5) }

// p99 is the median of the blocks' p99s: each block has enough jobs for
// ten beyond its p99, and the median keeps one stalled block from moving
// the figure.
func (h *heavyResult) p99() float64 { return median(h.blockP99) }

// heavyLegs runs blocks heavy-rate blocks per engine, alternating engines
// block by block.
func heavyLegs(systems [2]*svcSystem, in *svcInputs, p serviceParams, blocks int, inject bool, tr *tracer, t *tally) [2]*heavyResult {
	var out [2]*heavyResult
	for e := range out {
		out[e] = &heavyResult{layer: newLayerAcc()}
	}
	for b := 0; b < blocks; b++ {
		for e, s := range systems {
			l := s.leg(in, p.heavy, p.blockJobs, 1+b*p.blockJobs, inject && b == 0, tr)
			l.recordInto(t)
			h := out[e]
			h.lat = append(h.lat, l.missed()...)
			h.late = append(h.late, l.late...)
			h.blockP99 = append(h.blockP99, l.p(0.99))
			h.jobs += l.jobs
			h.rejected += l.rejected
			if l.layer != nil {
				h.layer.jobs += l.layer.jobs
				for k, v := range l.layer.delta {
					h.layer.delta[k] += v
				}
				h.layer.overheads.Add(l.layer.overheads)
			}
		}
	}
	return out
}

func runServiceOpen(cfg config, rep io.Writer) (*result, error) {
	p := serviceParamsFor(cfg)
	in := newSvcInputs(cfg.seed, 3, p.shape)
	var total tally
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: both services built and warmed up.  An untraced run sets up
	// afresh, closing the previous services first, before every capacity
	// and one-in-flight block, the heavy blocks and the ladder, so the
	// set-ups sample the host across the whole run; setup_s is their
	// median.
	var systems [2]*svcSystem
	var setupSecs []float64
	setup := func() {
		closeServices(systems, &total)
		runtime.GC()
		t0 := time.Now()
		for e, sd := range sides {
			systems[e] = newSvcSystem(sd, runtime.GOMAXPROCS(0), reducers.EngineOptions{})
			_, t := systems[e].sequential(in, p.warmupJobs, 0, false)
			total.merge(t)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	setup()
	fmt.Fprintf(rep, "service-open: job = fork-join of %d leaves x %d xorshift steps, 2 job-scoped Add reducers; AdmitReject, queue bound %d\n",
		p.shape.leaves, p.shape.spin, svcQueue)

	out := metricSet{}
	if !cfg.trace {
		// Capacity in blocks alternating between engines; the median
		// block keeps a transient stall on the host from setting it.
		var capBlocks [2][]float64
		for b := 0; b < capacityBlocks; b++ {
			if b > 0 {
				setup()
			}
			for e := range systems {
				rate, t := systems[e].capacity(in, p.inflight, p.capacity/capacityBlocks, b*100_000)
				total.merge(t)
				capBlocks[e] = append(capBlocks[e], rate)
			}
		}
		capRate := [2]float64{median(capBlocks[0]), median(capBlocks[1])}
		// One job in flight, blocks alternating between engines: the
		// service's round trip without queueing behind other jobs.
		var seq [2][]float64
		for b := 0; b < p.seqBlocks; b++ {
			setup()
			for e := range systems {
				lat, t := systems[e].sequential(in, p.seqJobs, (1+b)*p.seqJobs, cfg.injectWrong && b == 0)
				total.merge(t)
				seq[e] = append(seq[e], lat...)
			}
		}
		setup()
		heavy := heavyLegs(systems, in, p, p.heavyBlocks, false, nil, &total)
		setup()
		slo := sloRates(rep, systems, in, p, heavy, &total)
		out.add("setup_s", "s", median(setupSecs))
		fmt.Fprintf(rep, "setup: median %.4fs of %d set-ups %.4v\n", median(setupSecs), len(setupSecs), setupSecs)
		for e, sd := range sides {
			p50 := median(seq[e])
			out.add("latency_p50_ms."+sd.label, "ms", p50)
			out.add("throughput."+sd.label, "1/s", capRate[e])
			fmt.Fprintf(rep, "%s capacity: %.1f jobs/s, median of %d closed-loop blocks %.5v with %d jobs in flight, %v in all\n",
				sd.label, capRate[e], capacityBlocks, capBlocks[e], p.inflight, p.capacity)
			fmt.Fprintf(rep, "%s one job in flight: jobs=%d p50=%.4fms p90=%.4fms p99=%.4fms (tails not gated; p99 has %d samples beyond)\n",
				sd.label, len(seq[e]), p50, quantile(seq[e], 0.9), quantile(seq[e], 0.99), len(seq[e])/100)
			h := heavy[e]
			fmt.Fprintf(rep, "%s open loop %.0f/s (not gated): jobs=%d rejected=%d p50=%.4fms p90=%.4fms p99=%.4fms (median of %d block p99s %.3v, %d jobs each) generator late p50=%.1fus p99=%.1fus (p50 late = %.1f%% of latency p50)\n",
				sd.label, p.heavy, h.jobs, h.rejected, h.p50(), quantile(h.lat, 0.9), h.p99(), len(h.blockP99), h.blockP99, p.blockJobs,
				quantile(h.late, 0.5), quantile(h.late, 0.99), 100*quantile(h.late, 0.5)/1e3/h.p50())
			fmt.Fprintf(rep, "%s slo_rate=%.1f jobs/s (p99 <= %.1fms with no rejects and no growing queue; ladder %v + %v; not gated)\n",
				sd.label, slo[e], p.limitMs, p.heavy, p.ladder)
		}
		fmt.Fprintf(rep, "ratio service-open: mm/hm one-in-flight p50 = %.3f, open-loop p50 = %.3f (not gated)\n",
			median(seq[0])/median(seq[1]), heavy[0].p50()/heavy[1].p50())
		out.add("peak_rss_mb", "MB", peakRSSMB())
	} else {
		calib := heavyLegs(systems, in, p, 1, false, nil, &total)
		for _, s := range systems {
			s.eng.SetTiming(true)
		}
		heavy := heavyLegs(systems, in, p, p.heavyBlocks, cfg.injectWrong, tr, &total)
		for e, s := range systems {
			s.eng.SetTiming(false)
			lab := sides[e].label
			heavy[e].layer.emitLayers(out, lab)
			fig8Share(rep, out, lab, heavy[e].layer, meanOf(tr.durations(lab, "job_fn")))
			out.add("harness.trace_overhead."+lab, "ratio", calib[e].p50()/heavy[e].p50())
		}
		out.add("harness.mm_over_hm", "ratio", heavy[0].p50()/heavy[1].p50())
		if err := standardProbes(cfg, tr, out, &total, probeLookup|probePBFS); err != nil {
			return nil, err
		}
		emitCountedService(cfg, out, &total, in)
	}
	closeServices(systems, &total)
	if cfg.trace {
		emitSpanLayers(out, tr)
		if err := writeSpans(cfg, tr, rep); err != nil {
			return nil, err
		}
	}
	return finish(rep, out, total), nil
}

// closeServices drains each built service; Close runs the runtime's and
// engine's quiescence checks, and a leak fails the run.
func closeServices(systems [2]*svcSystem, t *tally) {
	for _, s := range systems {
		if s == nil {
			continue
		}
		if err := s.svc.Close(); err != nil {
			t.record(fmt.Errorf("service %s drain: %w", s.side.label, err))
		}
	}
}

// sloRates walks the rate ladder on both engines, starting from the heavy
// blocks as its first rung, and returns each engine's slo_rate: the
// highest rate meeting the limit, interpolated towards the first failing
// rung.  Rejects on the ladder fail their rung; they are overload probes,
// not failed jobs of the run.
func sloRates(rep io.Writer, systems [2]*svcSystem, in *svcInputs, p serviceParams, heavy [2]*heavyResult, t *tally) [2]float64 {
	var slo, lastP99 [2]float64
	var climbing [2]bool
	for e, h := range heavy {
		// The heavy blocks' p99 is their median block p99; none of their
		// jobs may have been rejected or failed.
		if !math.IsInf(quantile(h.lat, 1), 1) && h.p99() <= p.limitMs {
			slo[e], lastP99[e], climbing[e] = p.heavy, h.p99(), true
		}
	}
	for j, rate := range p.ladder {
		for e := range systems {
			if !climbing[e] {
				continue
			}
			l := systems[e].leg(in, rate, p.blockJobs, (100+j)*p.blockJobs, false, nil)
			t.merge(l.tally)
			p99 := l.p(0.99)
			pass := l.tally.failed == 0 && l.rejected == 0 && !l.growing && p99 <= p.limitMs
			fmt.Fprintf(rep, "%s rung %5.0f/s: jobs=%d rejected=%d p50=%.3fms p99=%.3fms queue head/tail=%.2f/%.2f growing=%v pass=%v\n",
				sides[e].label, rate, l.jobs, l.rejected, l.p(0.5), p99, l.depthHead, l.depthTail, l.growing, pass)
			switch {
			case pass:
				slo[e], lastP99[e] = rate, p99
			case l.tally.failed == 0 && l.rejected == 0 && !l.growing && p99 > lastP99[e]:
				// Interpolate linearly in p99 to where it crossed the limit.
				slo[e] += (rate - slo[e]) * (p.limitMs - lastP99[e]) / (p99 - lastP99[e])
				climbing[e] = false
			default:
				// No finite p99 to interpolate with: the last passing rate
				// stands.
				climbing[e] = false
			}
		}
	}
	return slo
}

// emitCountedService runs a few jobs on lookup-counting services for
// lookup_cache_hit_rate.
func emitCountedService(cfg config, out metricSet, t *tally, in *svcInputs) {
	for _, sd := range sides {
		s := newSvcSystem(sd, runtime.GOMAXPROCS(0), reducers.EngineOptions{CountLookups: true})
		s.leg(in, 100, 5, 0, false, nil).recordInto(t)
		emitLookupCounts(out, sd.label, s.eng)
		if err := s.svc.Close(); err != nil {
			t.record(err)
		}
	}
}
