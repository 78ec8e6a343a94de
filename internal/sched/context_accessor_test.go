package sched

import "testing"

// TestContextAccessorsMirrorWorker pins the two context-level accessors the
// typed lookup fast path leans on: WorkerID must equal the executing
// worker's ID on every context the runtime hands out (root and both fork
// branches, stolen or not), and ViewEpoch must track the worker's live
// epoch through invalidations.
func TestContextAccessorsMirrorWorker(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	check := func(c *Context) {
		if got, want := c.WorkerID(), c.Worker().ID(); got != want {
			t.Errorf("WorkerID = %d, want %d", got, want)
		}
		if got, want := c.ViewEpoch(), c.Worker().ViewEpoch(); got != want {
			t.Errorf("ViewEpoch = %d, want %d", got, want)
		}
	}
	if _, err := rt.Run(func(c *Context) {
		check(c)
		c.Fork(check, check)

		before := c.ViewEpoch()
		c.Worker().InvalidateLookupCache()
		if got := c.ViewEpoch(); got != before+1 {
			t.Errorf("ViewEpoch after invalidation = %d, want %d", got, before+1)
		}
		c.Worker().PublishViewInvalidation()
		if got := c.ViewEpoch(); got != before+2 {
			t.Errorf("ViewEpoch after publication = %d, want %d", got, before+2)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
