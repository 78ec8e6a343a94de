// Command perfbench is the repository benchmark: four reducer workloads,
// each run on both reducer engines (mm = the memory-mapped core.MM, hm =
// the hypermap baseline), with every job's result checked against its
// serial elision.
//
//	perfbench --workload hot-updates --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// and the engines' phase timers off.  With --trace 1 it runs a second,
// traced pass that records spans around every call into the system and
// reports per-layer metrics (self times and per-job counter deltas); the
// spans are written to --trace-out when the run ends.  The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A human-readable report with job counts, percentiles and the latency
// limit goes to standard error.  The exit code is non-zero when any job
// failed or returned a wrong result.  See README.md for the workloads and
// metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/reducers"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks every input so the whole benchmark runs in a test.
	quick bool
	// injectWrong pre-loads one reducer per engine (or corrupts one
	// traversal) so a test can prove wrong results are caught.
	injectWrong bool
	// traceOut is the directory the traced pass writes its spans to.
	traceOut string
}

// side is one reducer engine under test.
type side struct {
	label string
	mech  reducers.Mechanism
}

var sides = [2]side{{"mm", reducers.MemoryMapped}, {"hm", reducers.Hypermap}}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's machine-readable output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// tally counts attempted and failed jobs; the first failure's error is
// kept for the report.
type tally struct {
	attempted, failed int64
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]func(cfg config, rep io.Writer) (*result, error){
	"hot-updates":  runHotUpdates,
	"many-views":   runManyViews,
	"pbfs":         runPBFS,
	"service-open": runServiceOpen,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation.
func run(cfg config, rep io.Writer) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	fmt.Fprintf(rep, "perfbench: workload=%s seed=%d seconds=%g trace=%v workers=GOMAXPROCS=%d NumCPU=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	return fn(cfg, rep)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hot-updates, many-views, pbfs, service-open")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny inputs (smoke test)")
	flag.BoolVar(&cfg.injectWrong, "inject-wrong", false, "seed a wrong result into each engine's jobs (checks the checker)")
	flag.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "perfbench-traces"), "directory for the traced pass's span files")
	flag.Parse()
	cfg.trace = traceFlag != 0

	start := time.Now()
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: done in %.1fs\n", time.Since(start).Seconds())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
