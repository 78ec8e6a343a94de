package hypermap

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// This file is the hypermap engine's one lookup primitive, LookupWord —
// the baseline-mechanism twin of the memory-mapped engine's lookupfast.go.
// The typed reducer handles capture *HM at construction and call it
// directly on a handle-cache miss, so the comparison between mechanisms
// measures the lookup structures (SPA indexing vs chained hash) rather than
// Go interface dispatch.  The hit shape is one hash (the baseline's
// characteristic modulo by the bucket count), one bucket-head load and two
// compares; everything else is outlined into lookupWordMiss.

// LookupWord implements core.Engine with the chain walk outlined: the
// inlinable bucket-head probe answers when r's entry heads its chain (the
// common case at steady state), and every other situation — nil and
// non-worker contexts, a below-head entry, written-bit stamping, first
// touches, recycled addresses, retired handles — takes the outlined miss
// path.  The epoch result follows the core.Engine contract: zero means "do
// not cache".  The outcome counters are the engine's lookup counts, as in
// the memory-mapped engine.
func (e *HM) LookupWord(c *sched.Context, r *core.Reducer, prevEpoch uint64, mutable bool) (unsafe.Pointer, uint64) {
	if c != nil {
		w := c.Worker()
		if ws, ok := w.Local().(*hmWorker); ok {
			if ent := ws.user.probeHead(r.Addr()); ent != nil && ent.owner == r && (!mutable || ent.written) {
				e.fastHits.Add(1)
				return ent.view, w.ViewEpoch()
			}
		}
	}
	return e.lookupWordMiss(c, r, mutable)
}

// lookupWordMiss is the outlined slow half of LookupWord.  Nil and
// non-worker contexts get the leftmost view, uncounted and uncached.
// Otherwise the full chain lookup re-probes — the head probe rejects
// below-head entries and owned entries whose written bit needs stamping on
// a mutable access — and only then does the resolution fall through to
// lookupSlow.  Retired handles return epoch zero so the caller never
// caches the frozen leftmost value.
func (e *HM) lookupWordMiss(c *sched.Context, r *core.Reducer, mutable bool) (unsafe.Pointer, uint64) {
	if c == nil {
		return r.UnboxView(r.Value()), 0
	}
	w := c.Worker()
	ws, _ := w.Local().(*hmWorker)
	if ws == nil {
		return r.UnboxView(r.Value()), 0
	}
	e.fastMisses.Add(1)
	epoch := w.ViewEpoch()
	if ent := ws.user.lookup(r.Addr()); ent != nil && ent.owner == r {
		if mutable {
			ent.written = true
		}
		return ent.view, epoch
	}
	e.fastCold.Add(1)
	v := e.lookupSlow(w, ws, r, mutable)
	if !e.dir.Valid(r) {
		return r.UnboxView(v), 0
	}
	return r.UnboxView(v), epoch
}

// FastPathStats returns a snapshot of LookupWord's outcome counters.
func (e *HM) FastPathStats() metrics.LookupFastPathStats {
	return metrics.LookupFastPathStats{
		Hits:       e.fastHits.Load(),
		Misses:     e.fastMisses.Load(),
		ColdMisses: e.fastCold.Load(),
	}
}

// Lookups implements core.Engine: LookupWord calls from worker contexts
// since the last reset (hits plus misses).
func (e *HM) Lookups() int64 { return e.fastHits.Load() + e.fastMisses.Load() }

// CacheHits reports the lookups since the last reset that an already
// resident view served: every LookupWord call except the cold misses,
// which created a view or fell back to a retired reducer's leftmost value.
func (e *HM) CacheHits() int64 { return e.Lookups() - e.fastCold.Load() }
