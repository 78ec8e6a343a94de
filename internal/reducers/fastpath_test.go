package reducers

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func fastPathStats(t *testing.T, eng core.Engine) metrics.LookupFastPathStats {
	t.Helper()
	switch e := eng.(type) {
	case *core.MM:
		return e.FastPathStats()
	case *hypermap.HM:
		return e.FastPathStats()
	}
	t.Fatalf("engine %T exposes no fast-path stats", eng)
	return metrics.LookupFastPathStats{}
}

// TestFastPathCounters pins when the devirtualized lookup's outcome
// counters tick on both engines: a first touch is a miss plus a cold miss,
// a steady-state handle-cache hit never reaches the engine at all, and an
// epoch invalidation turns exactly one re-resolution into an engine-side
// fast hit (the view still exists; only the handle's stamp went stale).
func TestFastPathCounters(t *testing.T) {
	for _, m := range Mechanisms() {
		t.Run(m.String(), func(t *testing.T) {
			s := NewSession(m, 2, EngineOptions{})
			defer s.Close()
			eng := s.Engine()
			sum := NewAdd[int64](eng)
			if err := s.Run(func(c *sched.Context) {
				sum.Add(c, 1)
				s0 := fastPathStats(t, eng)
				if s0.Misses < 1 || s0.ColdMisses < 1 {
					t.Errorf("first touch not counted as cold: %+v", s0)
				}
				sum.Add(c, 1)
				if s1 := fastPathStats(t, eng); s1 != s0 {
					t.Errorf("handle-cache hit reached the engine: %+v -> %+v", s0, s1)
				}
				// Invalidate the handle's epoch stamp without touching the
				// view: the re-resolution must be an engine fast hit, not a
				// cold one.
				c.Worker().InvalidateLookupCache()
				sum.Add(c, 1)
				s2 := fastPathStats(t, eng)
				if s2.Hits != s0.Hits+1 {
					t.Errorf("epoch miss took no engine fast hit: %+v -> %+v", s0, s2)
				}
				if s2.ColdMisses != s0.ColdMisses {
					t.Errorf("epoch miss went cold: %+v -> %+v", s0, s2)
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := sum.Value(); got != 3 {
				t.Fatalf("sum = %d, want 3", got)
			}

			// ResetOverheads must clear the family along with the other
			// lookup instrumentation.
			type resetter interface{ ResetOverheads() }
			eng.(resetter).ResetOverheads()
			if got := fastPathStats(t, eng); got != (metrics.LookupFastPathStats{}) {
				t.Fatalf("ResetOverheads left fast-path counters: %+v", got)
			}
		})
	}
}

// TestBoxedLookupAgreesWithHandle pins that the boxed core.Lookup helper and
// the typed handle resolve the same view on both engines: in a stolen
// continuation (a fresh trace on the thief), after the worker's view epoch
// is bumped under a cached handle, and after Unregister, where both serve
// the reducer's frozen leftmost value.
func TestBoxedLookupAgreesWithHandle(t *testing.T) {
	agree := func(t *testing.T, c *sched.Context, sum *Add[int64]) *int64 {
		t.Helper()
		typed := sum.View(c)
		boxed, ok := core.Lookup(c, sum.Reducer()).(*int64)
		if !ok || boxed != typed {
			t.Errorf("core.Lookup = %p, Handle.View = %p", boxed, typed)
		}
		if again := sum.View(c); again != typed {
			t.Errorf("Handle.View changed after core.Lookup: %p -> %p", typed, again)
		}
		return typed
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s *core.Session, sum *Add[int64])
	}{
		{"stolen continuation", func(t *testing.T, s *core.Session, sum *Add[int64]) {
			const attempts = 20
			for attempt := 0; attempt < attempts; attempt++ {
				stolen := false
				if err := s.Run(func(c *sched.Context) {
					left := c.WorkerID()
					c.Fork(func(c *sched.Context) {
						*agree(t, c, sum)++
						time.Sleep(2 * time.Millisecond)
					}, func(c *sched.Context) {
						stolen = c.WorkerID() != left
						*agree(t, c, sum)++
					})
				}); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if stolen {
					if got := sum.Value(); got != int64(2*(attempt+1)) {
						t.Fatalf("value = %d, want %d", got, 2*(attempt+1))
					}
					return
				}
			}
			t.Fatalf("continuation never stolen in %d attempts", attempts)
		}},
		{"invalidated epoch", func(t *testing.T, s *core.Session, sum *Add[int64]) {
			if err := s.Run(func(c *sched.Context) {
				*agree(t, c, sum)++
				c.Worker().InvalidateLookupCache()
				*agree(t, c, sum)++
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := sum.Value(); got != 2 {
				t.Fatalf("value = %d, want 2", got)
			}
		}},
		{"unregistered", func(t *testing.T, s *core.Session, sum *Add[int64]) {
			if err := s.Run(func(c *sched.Context) { sum.Add(c, 5) }); err != nil {
				t.Fatalf("Run: %v", err)
			}
			sum.Close()
			if err := s.Run(func(c *sched.Context) {
				if v := agree(t, c, sum); v != sum.Peek() || *v != 5 {
					t.Errorf("retired view = %p (%d), want the leftmost %p (5)", v, *v, sum.Peek())
				}
			}); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		for _, m := range Mechanisms() {
			t.Run(tc.name+"/"+m.String(), func(t *testing.T) {
				s := NewSession(m, 2, EngineOptions{})
				defer s.Close()
				tc.run(t, s, NewAdd[int64](s.Engine()))
			})
		}
	}
}
