package metrics

// Shared sample emitters.  Both reducer engines export through these
// helpers so the metric names, help strings and units stay identical; the
// engine label distinguishes the mechanisms when both are registered on
// one exporter.  Ratio gauges are computed here, at sample time, from the
// counters in the same snapshot — exporting the rate alongside the raw
// counters lets a dashboard show the headline number without PromQL while
// keeping the counters available for rate() arithmetic.

// counter emits one counter sample with an engine label.
func counter(emit func(MetricSample), engine, name, help string, v int64) {
	emit(MetricSample{Name: name, Help: help, Kind: KindCounter,
		LabelKey: "engine", LabelValue: engine, Value: float64(v)})
}

// gauge emits one gauge sample with an engine label.
func gauge(emit func(MetricSample), engine, name, help string, v float64) {
	emit(MetricSample{Name: name, Help: help, Kind: KindGauge,
		LabelKey: "engine", LabelValue: engine, Value: v})
}

// ratio returns num/den, or 0 when the denominator is zero.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// EmitMergePipeline emits the hypermerge pipeline counters plus two
// derived gauges: merge batch occupancy
// (reduce pairs per batch) and the identity-elision rate (elided views as
// a fraction of views reaching the merge).
func EmitMergePipeline(emit func(MetricSample), engine string, s MergePipelineStats) {
	counter(emit, engine, "cilkm_merges_total", "Completed hypermerges.", s.Merges)
	counter(emit, engine, "cilkm_merge_slots_total", "SPA slots walked by hypermerges.", s.SlotsMerged)
	counter(emit, engine, "cilkm_merge_reduces_total", "Monoid reduce calls performed by hypermerges.", s.Reduces)
	counter(emit, engine, "cilkm_merge_adopts_total", "Views adopted without a reduce (empty left slot).", s.Adopts)
	counter(emit, engine, "cilkm_merge_batches_total", "Reduce batches formed by the merge pipeline.", s.Batches)
	counter(emit, engine, "cilkm_parallel_merges_total", "Hypermerges that fanned batches out through the scheduler.", s.ParallelMerges)
	counter(emit, engine, "cilkm_bulk_page_fetches_total", "Bulk page-pool fetches issued by view transferal.", s.BulkPageFetches)
	counter(emit, engine, "cilkm_bulk_page_returns_total", "Bulk page-pool returns issued by the merge pipeline.", s.BulkPageReturns)
	counter(emit, engine, "cilkm_stale_view_drops_total", "Invalidated views dropped instead of merged.", s.StaleViewDrops)
	counter(emit, engine, "cilkm_merge_locality_sorts_total", "Hypermerges whose reduce partition was ordered by (arena class, view address) before batching.", s.LocalitySorts)
	gauge(emit, engine, "cilkm_merge_batch_occupancy", "Reduce pairs per merge batch (cumulative average).", ratio(s.Reduces, s.Batches))
}

// EmitElisions emits the identity-elision counter and rate.  Split from
// EmitMergePipeline because the hypermap engine tracks elisions without
// running the batched pipeline.
func EmitElisions(emit func(MetricSample), engine string, elisions, slotsMerged int64) {
	counter(emit, engine, "cilkm_identity_elisions_total", "Never-written identity views elided instead of merged.", elisions)
	gauge(emit, engine, "cilkm_identity_elision_rate", "Elided views as a fraction of views reaching the merge.", ratio(elisions, elisions+slotsMerged))
}

// EmitLookups emits the lookup counters shared by both engines: calls to
// the engine's LookupWord primitive, and the subset an already-resident
// view served.  Typed handles reach the primitive only on their own cache
// misses unless lookup counting is enabled, in which case every access is
// counted.
func EmitLookups(emit func(MetricSample), engine string, lookups, cacheHits int64) {
	counter(emit, engine, "cilkm_lookups_total", "Engine LookupWord calls (every handle access while lookup counting is enabled).", lookups)
	counter(emit, engine, "cilkm_lookup_cache_hits_total", "Engine lookups served by an already-resident view.", cacheHits)
	gauge(emit, engine, "cilkm_lookup_cache_hit_rate", "Cache hits as a fraction of lookups.", ratio(cacheHits, lookups))
}

// EmitLookupFastPath emits the engine lookup primitive's outcome counters
// shared by both engines, plus the derived hit rate (fast probes answered
// in place as a fraction of all fast probes).  cilkm_lookups_total and
// cilkm_lookup_cache_hits_total are derived from the same counters.
func EmitLookupFastPath(emit func(MetricSample), engine string, s LookupFastPathStats) {
	counter(emit, engine, "cilkm_fastpath_hits_total", "Typed-lookup fast probes answered by the precomputed slot index.", s.Hits)
	counter(emit, engine, "cilkm_fastpath_misses_total", "Typed-lookup fast probes that took the outlined miss path.", s.Misses)
	counter(emit, engine, "cilkm_fastpath_cold_misses_total", "Fast-path misses that created or re-resolved a view in lookupSlow.", s.ColdMisses)
	gauge(emit, engine, "cilkm_fastpath_hit_rate", "Fast probes answered in place, as a fraction of all fast probes.", ratio(s.Hits, s.Hits+s.Misses))
}

// EmitArena emits the per-worker view-arena aggregate, including the arena
// hit rate (free-list reuse as a fraction of arena allocations).
func EmitArena(emit func(MetricSample), engine string, s ArenaStats) {
	counter(emit, engine, "cilkm_arena_allocs_total", "View blocks handed out by the worker arenas.", s.Allocs)
	counter(emit, engine, "cilkm_arena_free_hits_total", "Arena allocations served from a free list (recycled views).", s.FreeHits)
	counter(emit, engine, "cilkm_arena_chunk_allocs_total", "Fresh bump chunks allocated by the arenas.", s.ChunkAllocs)
	counter(emit, engine, "cilkm_arena_frees_total", "Dead views returned to an arena free list.", s.Frees)
	counter(emit, engine, "cilkm_arena_heap_views_total", "Identity views heap-allocated because the monoid is not arena-eligible.", s.HeapViews)
	gauge(emit, engine, "cilkm_arena_free_blocks", "View blocks currently sitting on arena free lists.", float64(s.FreeBlocks))
	gauge(emit, engine, "cilkm_arena_hit_rate", "Arena allocations recycled from a free list, as a fraction.", ratio(s.FreeHits, s.Allocs))
}

// EmitDirectory emits the sharded reducer-directory aggregate.
func EmitDirectory(emit func(MetricSample), engine string, s DirectoryStats) {
	gauge(emit, engine, "cilkm_directory_shards", "Configured directory shard count.", float64(s.Shards))
	gauge(emit, engine, "cilkm_directory_live_reducers", "Reducers currently registered.", float64(s.Live))
	gauge(emit, engine, "cilkm_directory_free_slots", "Recycled slots available on the shard free lists.", float64(s.FreeSlots))
	counter(emit, engine, "cilkm_directory_registers_total", "Successful reducer registrations.", s.Registers)
	counter(emit, engine, "cilkm_directory_recycles_total", "Registrations served from a shard free list.", s.Recycles)
	counter(emit, engine, "cilkm_directory_unregisters_total", "Identity-checked unregistrations.", s.Unregisters)
	counter(emit, engine, "cilkm_directory_stale_unregisters_total", "Unregisters that lost the identity CAS.", s.StaleUnregisters)
	counter(emit, engine, "cilkm_directory_free_retries_total", "CAS retries on a shard free stack (contention).", s.FreeRetries)
	counter(emit, engine, "cilkm_directory_slot_grows_total", "RCU republications of a shard slot array.", s.SlotGrows)
}
