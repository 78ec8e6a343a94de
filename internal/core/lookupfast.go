package core

import (
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// This file is the memory-mapped engine's one lookup primitive, LookupWord.
// The typed reducer handles capture *MM at construction and call it
// directly on a handle-cache miss, without an interface dispatch; the boxed
// core.Lookup helper and every other caller reach it through the Engine
// interface.  The paper's claim is that a memory-mapped reducer lookup is a
// handful of instructions; the shape here is the Go rendering of that
// claim:
//
//	worker   := c.Worker()                   // one field load
//	private  := worker.Local().(*mmWorker)   // one load + type check
//	slot     := private.Probe(r.page, r.slot)// bounds check + 2 indexed loads
//	hit      := slot.FastHit(r, mutable)     // 2 masked compares
//	return slot.View(), worker.ViewEpoch()   // field load + atomic load
//
// The reducer's (page, slot) pair is precomputed at registration
// (SlotsPerMap is not a power of two, so Addr.Page/Addr.Slot each cost an
// integer division) and every helper on the path is small enough for the
// compiler to inline — `make inline-check` pins that.  Everything else —
// nil and non-worker contexts, written-bit stamping, first touches,
// recycled slots, retired handles — is outlined into lookupWordMiss so the
// hot shape stays branch-predictable and under the inlining budget.

// LookupWord implements Engine.  The epoch result follows the Engine
// contract: zero means "do not cache".
//
// The hit, miss and cold-miss counters are the engine's lookup counts
// (Lookups, CacheHits and FastPathStats all derive from them).  They cost
// one uncontended atomic add per call, which the typed handles pay only
// when their own per-worker cache misses — a per-trace event (steal,
// merge, unregister, growth), not a per-update one.
func (e *MM) LookupWord(c *sched.Context, r *Reducer, prevEpoch uint64, mutable bool) (unsafe.Pointer, uint64) {
	if c != nil {
		w := c.Worker()
		if ws, ok := w.Local().(*mmWorker); ok {
			if s := ws.private.Probe(int(r.page), int(r.slot)); s.FastHit(ownerWord(r), mutable) {
				e.fastHits.Add(1)
				return s.View(), w.ViewEpoch()
			}
		}
	}
	return e.lookupWordMiss(c, r, mutable)
}

// lookupWordMiss is the outlined slow half of LookupWord.  Nil and
// non-worker contexts get the leftmost view, uncounted and uncached.
// Otherwise it repeats the probe through the general SlotAt path — the
// fast probe rejects an owned slot whose written bit is clear on a mutable
// access, and that case must stamp the bit rather than create a view —
// then falls through to lookupSlow.  Retired handles return epoch zero so
// the caller never caches the frozen leftmost value; an owned slot that is
// still live keeps serving its private view until the trace ends (the hit
// path checks the owner stamp, not directory validity).
func (e *MM) lookupWordMiss(c *sched.Context, r *Reducer, mutable bool) (unsafe.Pointer, uint64) {
	if c == nil {
		return r.UnboxView(r.Value()), 0
	}
	w := c.Worker()
	ws, _ := w.Local().(*mmWorker)
	if ws == nil {
		return r.UnboxView(r.Value()), 0
	}
	e.fastMisses.Add(1)
	epoch := w.ViewEpoch()
	if s := ws.private.SlotAt(r.addr); s.View() != nil && s.Owner() == ownerWord(r) {
		if mutable && !s.Written() {
			ws.private.MarkWritten(r.addr)
		}
		return s.View(), epoch
	}
	e.fastCold.Add(1)
	v := e.lookupSlow(w, ws, r, mutable)
	if !e.dir.Valid(r) {
		return r.UnboxView(v), 0
	}
	return r.UnboxView(v), epoch
}

// FastPathStats returns a snapshot of LookupWord's outcome counters.
func (e *MM) FastPathStats() metrics.LookupFastPathStats {
	return metrics.LookupFastPathStats{
		Hits:       e.fastHits.Load(),
		Misses:     e.fastMisses.Load(),
		ColdMisses: e.fastCold.Load(),
	}
}

// Lookups implements Engine: LookupWord calls from worker contexts since
// the last reset (hits plus misses).
func (e *MM) Lookups() int64 { return e.fastHits.Load() + e.fastMisses.Load() }

// CacheHits reports the lookups since the last reset that an already
// resident view served: every LookupWord call except the cold misses,
// which created a view or fell back to a retired reducer's leftmost value.
func (e *MM) CacheHits() int64 { return e.Lookups() - e.fastCold.Load() }
