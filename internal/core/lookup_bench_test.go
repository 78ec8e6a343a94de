package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/sched"
)

type benchMonoid struct{}
type benchView struct{ v int64 }

func (benchMonoid) Identity() any       { return &benchView{} }
func (benchMonoid) Reduce(l, r any) any { lv := l.(*benchView); lv.v += r.(*benchView).v; return lv }

// BenchmarkMMLookupRaw calls the engine's lookup primitive, LookupWord,
// on the concrete type: no interface dispatch and no boxing.
func BenchmarkMMLookupRaw(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid{})
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			w, _ := eng.LookupWord(c, rs[idx], 0, true)
			(*benchView)(w).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

// BenchmarkMMLookupViaInterface is the boxed path: core.Lookup dispatches
// through the Engine interface and boxes the view word.
func BenchmarkMMLookupViaInterface(b *testing.B) {
	var eng core.Engine = core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid{})
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			core.Lookup(c, rs[idx]).(*benchView).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

// BenchmarkMMLookupRepeated is the boxed path on a loop body that looks up
// the same reducer on every iteration.
func BenchmarkMMLookupRepeated(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	r, _ := eng.Register(benchMonoid{})
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		for i := 0; i < b.N; i++ {
			core.Lookup(c, r).(*benchView).v++
		}
	})
}

// BenchmarkHypermapLookupRepeated is the same loop on the hypermap engine.
func BenchmarkHypermapLookupRepeated(b *testing.B) {
	eng := hypermap.New(hypermap.Config{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	r, _ := eng.Register(benchMonoid{})
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		for i := 0; i < b.N; i++ {
			core.Lookup(c, r).(*benchView).v++
		}
	})
}

// BenchmarkHypermapLookupRaw is BenchmarkMMLookupRaw on the hypermap
// engine.
func BenchmarkHypermapLookupRaw(b *testing.B) {
	eng := hypermap.New(hypermap.Config{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	rs := make([]*core.Reducer, 4)
	for i := range rs {
		rs[i], _ = eng.Register(benchMonoid{})
	}
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			w, _ := eng.LookupWord(c, rs[idx], 0, true)
			(*benchView)(w).v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}

func BenchmarkBaselineArray(b *testing.B) {
	eng := core.NewMM(core.MMConfig{Workers: 1})
	s := core.NewSession(1, eng)
	defer s.Close()
	cells := make([]benchView, 4)
	b.ResetTimer()
	_ = s.Run(func(c *sched.Context) {
		idx := 0
		for i := 0; i < b.N; i++ {
			cells[idx].v++
			idx++
			if idx == 4 {
				idx = 0
			}
		}
	})
}
