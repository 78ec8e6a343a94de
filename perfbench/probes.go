package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/hypermap"
	"repro/internal/pbfs"
	"repro/internal/reducers"
	"repro/internal/sched"
)

// Layer probes.  Every traced run reports every per-layer metric; a layer
// the workload itself bypasses is read from a small fixed probe of that
// layer instead, so its number still moves when that layer changes and
// stays put otherwise.
const (
	probeLookup  = 1 << iota // engine LookupWord and handle update loops
	probeService             // a short open-loop leg through a service
	probePBFS                // a tiny graph build and counted traversal
)

// standardProbes runs the probes selected by mask.
func standardProbes(cfg config, tr *tracer, out metricSet, t *tally, mask int) error {
	if mask&probeLookup != 0 {
		for _, s := range sides {
			if err := lookupProbe(cfg, s, tr); err != nil {
				t.record(err)
			}
		}
	}
	if mask&probeService != 0 {
		sh := svcShape{leaves: 16, spin: 200}
		in := newSvcInputs(cfg.seed, 4, sh)
		jobs := 1000
		if cfg.quick {
			jobs = 50
		}
		for _, sd := range sides {
			s := newSvcSystem(sd, runtime.GOMAXPROCS(0), reducers.EngineOptions{})
			s.leg(in, 1000, jobs, 0, false, tr).recordInto(t)
			if err := s.svc.Close(); err != nil {
				t.record(err)
			}
		}
	}
	if mask&probePBFS != 0 {
		g, err := buildGraph(cfg, 1.0/4096, tr)
		if err != nil {
			return err
		}
		want := pbfs.Serial(g, 0)
		for _, sd := range sides {
			sess := reducers.NewSession(sd.mech, runtime.GOMAXPROCS(0), reducers.EngineOptions{CountLookups: true})
			res, err := pbfs.Parallel(sess, g, pbfs.Config{Source: 0})
			if err == nil {
				err = checkBFS(want, res)
			}
			t.record(checkQuiescent(sess, err))
			out.add("pbfs.lookups_per_traversal."+sd.label, "count", float64(sess.Engine().Lookups()))
			sess.Close()
		}
	}
	return nil
}

// lookupProbe times n lookups through the concrete engine's LookupWord —
// below the typed handles' per-worker caches: the paper's Fig 1 mechanism
// row — and n updates through typed handles, each on four reducers in the
// root strand of one job.  Both loops are checked against their counts.
func lookupProbe(cfg config, sd side, tr *tracer) error {
	n := 1 << 20
	if cfg.quick {
		n = 1 << 12
	}
	sess := reducers.NewSession(sd.mech, runtime.GOMAXPROCS(0), reducers.EngineOptions{})
	defer sess.Close()
	eng := sess.Engine()
	var adds [4]*reducers.Add[uint64]
	var rs [4]*core.Reducer
	for i := range adds {
		adds[i] = reducers.NewAdd[uint64](eng)
		rs[i] = adds[i].Reducer()
	}
	defer func() {
		for _, a := range adds {
			a.Close()
		}
	}()
	job := tr.id()
	var probeErr error
	err := sess.Run(func(c *sched.Context) {
		t0 := tr.now()
		switch e := eng.(type) {
		case *core.MM:
			for i := 0; i < n; i++ {
				w, _ := e.LookupWord(c, rs[i&3], 0, true)
				*(*uint64)(w) += 1
			}
		case *hypermap.HM:
			for i := 0; i < n; i++ {
				w, _ := e.LookupWord(c, rs[i&3], 0, true)
				*(*uint64)(w) += 1
			}
		default:
			probeErr = fmt.Errorf("lookup probe %s: unknown engine type %T", sd.label, eng)
			return
		}
		t1 := tr.now()
		for i := 0; i < n; i++ {
			adds[i&3].Add(c, 1)
		}
		t2 := tr.now()
		tr.record(span{ID: tr.id(), Job: job, Engine: sd.label, Name: "lookup_probe", Start: t0, End: t1, Units: int64(n)})
		tr.record(span{ID: tr.id(), Job: job, Engine: sd.label, Name: "handle_probe", Start: t1, End: t2, Units: int64(n)})
	})
	if err == nil {
		err = probeErr
	}
	if err := checkQuiescent(sess, err); err != nil {
		return err
	}
	var sum uint64
	for _, a := range adds {
		sum += a.Value()
	}
	if sum != 2*uint64(n) {
		return fmt.Errorf("lookup probe %s: sum %d, want %d", sd.label, sum, 2*n)
	}
	return nil
}

// emitSpanLayers reports the per-layer metrics derived from spans: self
// times of the handle, directory, graph and service layers and the
// generator's lateness.
func emitSpanLayers(out metricSet, tr *tracer) {
	layers := tr.selfTimes()
	mean := func(engine, name string, scale float64) (float64, bool) {
		lt := layers[[2]string{engine, name}]
		if lt == nil || lt.count == 0 {
			return 0, false
		}
		return float64(lt.selfNs) / scale / float64(lt.count), true
	}
	perUnit := func(engine, name string) (float64, bool) {
		lt := layers[[2]string{engine, name}]
		if lt == nil || lt.units == 0 {
			return 0, false
		}
		return float64(lt.selfNs) / float64(lt.units), true
	}
	for _, s := range sides {
		l := s.label
		// Sampled leaf chunks where the workload has them, else the probe.
		if v, ok := perUnit(l, "update_chunk"); ok {
			out.add("reducers.update_ns."+l, "ns", v)
		} else if v, ok := perUnit(l, "handle_probe"); ok {
			out.add("reducers.update_ns."+l, "ns", v)
		}
		if v, ok := perUnit(l, "lookup_probe"); ok {
			out.add("engine.lookup_ns."+l, "ns", v)
		}
		for _, n := range []string{"register", "unregister"} {
			if v, ok := mean(l, n, 1e3); ok {
				out.add("directory."+n+"_us."+l, "us", v)
			}
		}
		if v, ok := mean(l, "submit", 1e3); ok {
			out.add("service.submit_us."+l, "us", v)
		}
		if v, ok := mean(l, "job_fn", 1e3); ok {
			out.add("service.run_us."+l, "us", v)
		}
		for _, n := range []string{"queue_wait", "settle"} {
			ds := tr.durations(l, n)
			if len(ds) > 0 {
				out.add("service."+n+"_us_p50."+l, "us", quantile(ds, 0.5)/1e3)
				out.add("service."+n+"_us_p99."+l, "us", quantile(ds, 0.99)/1e3)
			}
		}
	}
	if v, ok := mean("", "graph_build", 1e9); ok {
		out.add("graph.build_s", "s", v)
	}
	var late []float64
	for _, s := range sides {
		late = append(late, tr.durations(s.label, "generator_late")...)
	}
	if len(late) > 0 {
		out.add("harness.gen_late_p99_us", "us", quantile(late, 0.99)/1e3)
	}
}

// writeSpans dumps the traced pass's spans to the trace directory.
func writeSpans(cfg config, tr *tracer, rep io.Writer) error {
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(rep, "trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
