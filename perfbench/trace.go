package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced pass.  Spans of one job share
// Job; Parent is the span whose interval caused this one (0 for a job's
// root span).  Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Job    uint64 `json:"job"`
	Engine string `json:"engine"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Units is the work the span covered (updates in a leaf chunk,
	// lookups in a probe); zero when not applicable.
	Units int64 `json:"units,omitempty"`
}

// tracer keeps spans in memory; write dumps them when the run ends.  A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current tracer time.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id allocates a span or job identifier.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

// record appends a finished span.  It is safe for concurrent use.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// layerTime is the accumulated self time of one span name on one engine.
type layerTime struct {
	selfNs int64
	count  int64
	units  int64
}

// selfTimes returns, per (engine, span name), the summed self time: each
// span's duration minus the part of its interval covered by its children.
func (t *tracer) selfTimes() map[[2]string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[[2]string]*layerTime)
	for _, s := range t.spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		k := [2]string{s.Engine, s.Name}
		lt := out[k]
		if lt == nil {
			lt = &layerTime{}
			out[k] = lt
		}
		lt.selfNs += self
		lt.count++
		lt.units += s.Units
	}
	return out
}

// durations returns the durations (not self times) of every span with the
// given engine and name, in nanoseconds.
func (t *tracer) durations(engine, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Engine == engine && s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write dumps every span as one JSON object per line to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
