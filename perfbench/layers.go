package main

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// counters is one snapshot of the exporter samples of an engine, its
// scheduler runtime and (for the service workload) its service, keyed by
// metric name.  Each source is sampled separately, so the engine label is
// implied by which system the snapshot was taken from.
type counters struct {
	m         map[string]float64
	overheads metrics.Breakdown
}

// snapshot samples every source through its SampleMetrics method and the
// engine's Fig 8 overhead recorder.
func snapshot(eng core.Engine, rt *sched.Runtime, svc *sched.Service) counters {
	c := counters{m: make(map[string]float64, 96)}
	emit := func(s metrics.MetricSample) { c.m[s.Name] += s.Value }
	if src, ok := eng.(metrics.Source); ok {
		src.SampleMetrics(emit)
	}
	if rt != nil {
		rt.SampleMetrics(emit)
	}
	if svc != nil {
		svc.SampleMetrics(emit)
	}
	c.overheads = eng.Overheads()
	return c
}

// layerAcc accumulates counter deltas over the traced jobs of one engine.
type layerAcc struct {
	jobs      int
	delta     map[string]float64
	overheads metrics.Breakdown
}

func newLayerAcc() *layerAcc { return &layerAcc{delta: make(map[string]float64)} }

// add folds the difference between two snapshots taken around jobs jobs.
func (a *layerAcc) add(before, after counters, jobs int) {
	a.jobs += jobs
	for k, v := range after.m {
		a.delta[k] += v - before.m[k]
	}
	for i := range after.overheads.Nanos {
		a.overheads.Nanos[i] += after.overheads.Nanos[i] - before.overheads.Nanos[i]
		a.overheads.Counts[i] += after.overheads.Counts[i] - before.overheads.Counts[i]
	}
}

// perJob returns the named counter's delta per job.
func (a *layerAcc) perJob(name string) float64 {
	if a.jobs == 0 {
		return 0
	}
	return a.delta["cilkm_"+name] / float64(a.jobs)
}

// ratio returns num/(num+other) over the counters' deltas, or 0 when both
// are zero.
func (a *layerAcc) ratio(num, other string) float64 {
	n, o := a.delta["cilkm_"+num], a.delta["cilkm_"+other]
	if n+o == 0 {
		return 0
	}
	return n / (n + o)
}

// phaseUsPerJob returns one Fig 8 overhead phase in microseconds per job.
func (a *layerAcc) phaseUsPerJob(o metrics.Overhead) float64 {
	if a.jobs == 0 {
		return 0
	}
	return float64(a.overheads.Nanos[o]) / 1e3 / float64(a.jobs)
}

// emitLayers reports the counter-derived per-layer metrics of one engine
// under the exporter's metric names (without the cilkm_ prefix).
func (a *layerAcc) emitLayers(out metricSet, label string) {
	sfx := "." + label
	out.add("fastpath_hit_rate"+sfx, "ratio", a.ratio("fastpath_hits_total", "fastpath_misses_total"))
	out.add("engine.view_creation_us"+sfx, "us", a.phaseUsPerJob(metrics.ViewCreation))
	out.add("engine.view_insertion_us"+sfx, "us", a.phaseUsPerJob(metrics.ViewInsertion))
	out.add("engine.view_transferal_us"+sfx, "us", a.phaseUsPerJob(metrics.ViewTransferal))
	out.add("engine.hypermerge_us"+sfx, "us", a.phaseUsPerJob(metrics.Hypermerge))
	out.add("identity_elisions_per_job"+sfx, "count", a.perJob("identity_elisions_total"))
	out.add("sched.steals_per_job"+sfx, "count", a.perJob("sched_steals_total"))
	out.add("sched.failed_steal_frac"+sfx, "ratio", a.ratio("sched_failed_steals_total", "sched_steals_total"))
	out.add("sched.forks_per_job"+sfx, "count", a.perJob("sched_forks_total"))
	out.add("sched.stalled_joins_per_job"+sfx, "count", a.perJob("sched_stalled_joins_total"))
	out.add("sched.parks_per_job"+sfx, "count", a.perJob("sched_worker_parks_total"))
	if label == "mm" {
		// The hypermap engine runs no batched merge pipeline, page pool or
		// view arena, so it exports none of these counters.
		out.add("merge_slots_per_job.mm", "count", a.perJob("merge_slots_total"))
		out.add("merge_reduces_per_job.mm", "count", a.perJob("merge_reduces_total"))
		out.add("identity_elision_rate.mm", "ratio", a.ratio("identity_elisions_total", "merge_slots_total"))
		out.add("pagepool_round_trips_per_job.mm", "count", a.perJob("pagepool_round_trips_total"))
		out.add("pagepool_fresh_pages_per_job.mm", "count", a.perJob("pagepool_fresh_pages_total"))
		// Free-list reuse as a fraction of arena allocations, the exporter's
		// cilkm_arena_hit_rate over the traced jobs' deltas.
		arena := 0.0
		if allocs := a.delta["cilkm_arena_allocs_total"]; allocs > 0 {
			arena = a.delta["cilkm_arena_free_hits_total"] / allocs
		}
		out.add("arena_hit_rate.mm", "ratio", arena)
	}
}
