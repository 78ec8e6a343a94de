package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/reducers"
	"repro/internal/sched"
)

// variants is how many distinct seeded inputs a closed-loop workload cycles
// through; job i uses input i mod variants, whose serial elision is
// computed once before the run.
const variants = 4

// splitmix64 derives independent seeds from (seed, stream).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// xorshift is the cheap generator the leaf loops use for update values.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// variantBase returns the generator base of input variant k.
func variantBase(seed int64, stream, k int) uint64 {
	return splitmix64(uint64(seed)*1_000_003+uint64(stream)*7919+uint64(k)) | 1
}

// jobVariant maps a job index (negative for warm-up jobs) to one of n
// inputs.
func jobVariant(i, n int) int {
	if i < 0 {
		i = -i
	}
	return i % n
}

// ---------------------------------------------------------------------------
// hot-updates: the paper's add-n / min-n / max-n loop on four reducers.
// ---------------------------------------------------------------------------

// hotChunk is the number of updates one leaf performs serially (coarse
// grain: the loop body is the paper's tight update loop).
const hotChunk = 4096

// hotWant is the serial elision of one hot-updates input.
type hotWant struct {
	add0, add1 uint64
	min, max   uint64
}

// hotValue is update i's value for input base.
func hotValue(base uint64, i int) uint64 { return xorshift(base + uint64(i)) }

// hotSerial folds an input serially: update i goes to reducer i mod 4.
func hotSerial(base uint64, n int) hotWant {
	w := hotWant{min: ^uint64(0)}
	for i := 0; i < n; i++ {
		v := hotValue(base, i)
		switch i & 3 {
		case 0:
			w.add0 += v
		case 1:
			w.min = min(w.min, v)
		case 2:
			w.max = max(w.max, v)
		default:
			w.add1 += v >> 40
		}
	}
	return w
}

func runHotUpdates(cfg config, rep io.Writer) (*result, error) {
	n := 1 << 20
	if cfg.quick {
		n = 64 << 10
	}
	var bases [variants]uint64
	var want [variants]hotWant
	for k := range bases {
		bases[k] = variantBase(cfg.seed, 1, k)
		want[k] = hotSerial(bases[k], n)
	}
	nChunks := (n + hotChunk - 1) / hotChunk
	spec := &batchSpec{
		name:   "hot-updates",
		unit:   "updates",
		work:   float64(n),
		warmup: 10,
		probes: probeLookup | probeService | probePBFS,
		newSystem: func(s side, opts reducers.EngineOptions, tr *tracer) (*batchSystem, error) {
			sess := reducers.NewSession(s.mech, runtime.GOMAXPROCS(0), opts)
			eng := sess.Engine()
			add0 := register(tr, s.label, func() *reducers.Add[uint64] { return reducers.NewAdd[uint64](eng) })
			mn := register(tr, s.label, func() *reducers.Min[uint64] { return reducers.NewMin[uint64](eng) })
			mx := register(tr, s.label, func() *reducers.Max[uint64] { return reducers.NewMax[uint64](eng) })
			add1 := register(tr, s.label, func() *reducers.Add[uint64] { return reducers.NewAdd[uint64](eng) })
			job := func(i int, jt *jobTrace) (time.Duration, error) {
				k := jobVariant(i, variants)
				base := bases[k]
				add0.SetValue(0)
				add1.SetValue(0)
				mn.SetView(&reducers.Extreme[uint64]{})
				mx.SetView(&reducers.Extreme[uint64]{})
				if cfg.injectWrong && i == 1 {
					add0.SetValue(1)
				}
				d, err := timedRun(jt, "session_run", func(jt *jobTrace) error {
					return sess.Run(func(c *sched.Context) {
						c.ParallelForGrain(0, nChunks, 1, func(c *sched.Context, chunk int) {
							var start int64
							sampled := jt != nil && chunk%sampleEvery == 0
							if sampled {
								start = jt.tr.now()
							}
							lo := chunk * hotChunk
							hi := min(lo+hotChunk, n)
							for i := lo; i < hi; i++ {
								v := hotValue(base, i)
								switch i & 3 {
								case 0:
									add0.Add(c, v)
								case 1:
									mn.Update(c, v)
								case 2:
									mx.Update(c, v)
								default:
									add1.Add(c, v>>40)
								}
							}
							if sampled {
								jt.leaf(start, hi-lo)
							}
						})
					})
				})
				if err != nil {
					return d, err
				}
				got := hotWant{add0: add0.Value(), add1: add1.Value()}
				var okMin, okMax bool
				got.min, okMin = mn.Value()
				got.max, okMax = mx.Value()
				if !okMin || !okMax || got != want[k] {
					return d, fmt.Errorf("hot-updates %s job %d: got %+v (min set %v, max set %v), serial elision %+v",
						s.label, i, got, okMin, okMax, want[k])
				}
				return d, nil
			}
			closeFn := func(tr *tracer) {
				unregister(tr, s.label, add0.Close)
				unregister(tr, s.label, mn.Close)
				unregister(tr, s.label, mx.Close)
				unregister(tr, s.label, add1.Close)
			}
			return &batchSystem{side: s, sess: sess, job: job, close: closeFn}, nil
		},
	}
	return runBatch(spec, cfg, rep)
}

// ---------------------------------------------------------------------------
// many-views: hashed updates spread over 1024 reducers at grain 64.
// ---------------------------------------------------------------------------

// manyGrain is the number of updates per leaf.
const manyGrain = 64

// manyTarget returns update i's reducer index and value for input base.
func manyTarget(base uint64, i, reducers int) (int, uint64) {
	h := splitmix64(base + uint64(i))
	return int(h % uint64(reducers)), (h>>32)&0xff + 1
}

func runManyViews(cfg config, rep io.Writer) (*result, error) {
	nRed, n := 1024, 64<<10
	if cfg.quick {
		nRed, n = 64, 4<<10
	}
	var bases [variants]uint64
	want := make([][]uint64, variants)
	for k := range bases {
		bases[k] = variantBase(cfg.seed, 2, k)
		want[k] = make([]uint64, nRed)
		for i := 0; i < n; i++ {
			r, v := manyTarget(bases[k], i, nRed)
			want[k][r] += v
		}
	}
	nChunks := (n + manyGrain - 1) / manyGrain
	spec := &batchSpec{
		name:   "many-views",
		unit:   "updates",
		work:   float64(n),
		warmup: 50,
		probes: probeLookup | probeService | probePBFS,
		newSystem: func(s side, opts reducers.EngineOptions, tr *tracer) (*batchSystem, error) {
			sess := reducers.NewSession(s.mech, runtime.GOMAXPROCS(0), opts)
			eng := sess.Engine()
			adds := make([]*reducers.Add[uint64], nRed)
			for r := range adds {
				adds[r] = register(tr, s.label, func() *reducers.Add[uint64] { return reducers.NewAdd[uint64](eng) })
			}
			job := func(i int, jt *jobTrace) (time.Duration, error) {
				k := jobVariant(i, variants)
				base := bases[k]
				for _, a := range adds {
					a.SetValue(0)
				}
				if cfg.injectWrong && i == 1 {
					adds[0].SetValue(1)
				}
				d, err := timedRun(jt, "session_run", func(jt *jobTrace) error {
					return sess.Run(func(c *sched.Context) {
						c.ParallelForGrain(0, nChunks, 1, func(c *sched.Context, chunk int) {
							var start int64
							sampled := jt != nil && chunk%sampleEvery == 0
							if sampled {
								start = jt.tr.now()
							}
							lo := chunk * manyGrain
							hi := min(lo+manyGrain, n)
							for i := lo; i < hi; i++ {
								r, v := manyTarget(base, i, nRed)
								adds[r].Add(c, v)
							}
							if sampled {
								jt.leaf(start, hi-lo)
							}
						})
					})
				})
				if err != nil {
					return d, err
				}
				for r, a := range adds {
					if got := a.Value(); got != want[k][r] {
						return d, fmt.Errorf("many-views %s job %d: reducer %d = %d, serial elision %d",
							s.label, i, r, got, want[k][r])
					}
				}
				return d, nil
			}
			closeFn := func(tr *tracer) {
				for _, a := range adds {
					unregister(tr, s.label, a.Close)
				}
			}
			return &batchSystem{side: s, sess: sess, job: job, close: closeFn}, nil
		},
	}
	return runBatch(spec, cfg, rep)
}
