package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/pbfs"
	"repro/internal/reducers"
)

// pbfsInput is the grid3d200 stand-in (Figure 10) at the benchmark's
// scale.  It is cheap to build, so graph construction does not dominate
// setup_s.
const pbfsInput = "grid3d200"

// pbfsSources is how many seeded BFS sources a pbfs run cycles through.
const pbfsSources = 4

// pbfsScale returns the graph scale relative to the paper's input.  A
// traversal runs one Session.Run per BFS layer, and the layer count grows
// only with the grid's side: at 1/200 scale the per-layer worker wake-ups
// made the traversal time swing by 45% with contention on the host, so the
// graph is large enough for the work of a layer to dominate its dispatch.
func pbfsScale(cfg config) float64 {
	if cfg.quick {
		return 1.0 / 4096
	}
	return 1.0 / 32
}

// buildGraph builds the pbfs input, recording a "graph_build" span when tr
// is non-nil.
func buildGraph(cfg config, scale float64, tr *tracer) (*graph.Graph, error) {
	specIn, ok := graph.FindInput(pbfsInput)
	if !ok {
		return nil, fmt.Errorf("pbfs input %q not found", pbfsInput)
	}
	var start int64
	if tr != nil {
		start = tr.now()
	}
	g := specIn.Build(scale, cfg.seed)
	if tr != nil {
		tr.record(span{ID: tr.id(), Name: "graph_build", Start: start, End: tr.now()})
	}
	return g, nil
}

// checkBFS is pbfs.Validate's comparison against a serial reference the
// run computed once per source with pbfs.Serial.
func checkBFS(want, got *pbfs.Result) error {
	if got.Layers != want.Layers || got.Reachable != want.Reachable {
		return fmt.Errorf("layers=%d reachable=%d, serial %d/%d", got.Layers, got.Reachable, want.Layers, want.Reachable)
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] {
			return fmt.Errorf("dist[%d] = %d, serial %d", v, got.Dist[v], want.Dist[v])
		}
	}
	return nil
}

// pbfsReference builds the graph once, untimed, and returns the run's
// seeded sources, each source's serial BFS and the graph's edge count.  The
// graph itself is dropped: every set-up builds its own identical copy.
func pbfsReference(cfg config, scale float64, rep io.Writer) (sources [pbfsSources]int32, want [pbfsSources]*pbfs.Result, edges int64, err error) {
	ref, err := buildGraph(cfg, scale, nil)
	if err != nil {
		return sources, want, 0, err
	}
	for k := range sources {
		sources[k] = int32(splitmix64(uint64(cfg.seed)*31+uint64(k)) % uint64(ref.NumVertices()))
		want[k] = pbfs.Serial(ref, sources[k])
	}
	fmt.Fprintf(rep, "pbfs: %s scale 1/%.0f: %d vertices, %d directed edges, sources %v\n",
		pbfsInput, 1/scale, ref.NumVertices(), ref.NumEdges(), sources)
	return sources, want, ref.NumEdges(), nil
}

func runPBFS(cfg config, rep io.Writer) (*result, error) {
	scale := pbfsScale(cfg)
	sources, want, edges, err := pbfsReference(cfg, scale, rep)
	if err != nil {
		return nil, err
	}

	// g is the graph of the current set-up; the systems' close drops it so
	// the next set-up's build does not run with the old copy still live.
	var g *graph.Graph
	spec := &batchSpec{
		name:   "pbfs",
		unit:   "edges",
		work:   float64(edges),
		warmup: 3,
		probes: probeLookup | probeService,
		shared: func(tr *tracer) error {
			var err error
			g, err = buildGraph(cfg, scale, tr)
			return err
		},
		newSystem: func(s side, opts reducers.EngineOptions, tr *tracer) (*batchSystem, error) {
			sess := reducers.NewSession(s.mech, runtime.GOMAXPROCS(0), opts)
			job := func(i int, jt *jobTrace) (time.Duration, error) {
				k := jobVariant(i, pbfsSources)
				var res *pbfs.Result
				d, err := timedRun(jt, "pbfs_parallel", func(*jobTrace) error {
					var err error
					res, err = pbfs.Parallel(sess, g, pbfs.Config{Source: sources[k]})
					return err
				})
				if err != nil {
					return d, err
				}
				if cfg.injectWrong && i == 1 {
					res.Dist[len(res.Dist)-1]++
				}
				if err := checkBFS(want[k], res); err != nil {
					return d, fmt.Errorf("pbfs %s job %d source %d: %w", s.label, i, sources[k], err)
				}
				return d, nil
			}
			// PBFS registers and closes its frontier reducer inside each
			// traversal; there is nothing to unregister here.
			return &batchSystem{side: s, sess: sess, job: job, close: func(*tracer) { g = nil }}, nil
		},
	}
	return runBatch(spec, cfg, rep)
}
