package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or a part of
// such a call rebuilt from the timings the layer returned. Times are
// nanoseconds since the run started; Parent is 0 for a root span.
type span struct {
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent"`
	Name     string         `json:"name"`
	Workload string         `json:"workload"`
	StartNs  int64          `json:"start_ns"`
	EndNs    int64          `json:"end_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil
// *tracer records nothing, which is how an untraced operation runs.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span starting now and returns its id.
func (tr *tracer) begin(parent int64, name string) int64 {
	if tr == nil {
		return 0
	}
	return tr.record(parent, name, time.Now(), time.Time{}, nil)
}

// end closes span id now, attaching attrs.
func (tr *tracer) end(id int64, attrs map[string]any) {
	if tr == nil || id == 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sp := &tr.spans[id-1]
	sp.EndNs = now
	sp.Attrs = attrs
}

// record adds a span with explicit times; a zero end leaves it open for
// end.
func (tr *tracer) record(parent int64, name string, start, end time.Time, attrs map[string]any) int64 {
	if tr == nil {
		return 0
	}
	sp := span{Parent: parent, Name: name, Workload: tr.workload, StartNs: start.Sub(tr.t0).Nanoseconds(), Attrs: attrs}
	if !end.IsZero() {
		sp.EndNs = end.Sub(tr.t0).Nanoseconds()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sp.ID = int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, sp)
	return sp.ID
}

// timed runs fn inside a span named name.
func timed[T any](tr *tracer, parent int64, name string, fn func() (T, error)) (T, error) {
	id := tr.begin(parent, name)
	v, err := fn()
	var attrs map[string]any
	if err != nil {
		attrs = map[string]any{"error": err.Error()}
	}
	tr.end(id, attrs)
	return v, err
}

// layerSelf is one layer's share of the traced time: the layer is the
// span name up to its first dot, and self time is a span's duration less
// the part of it its children cover.
type layerSelf struct {
	Layer  string
	Spans  int
	SelfMs float64
}

// selfTimes sums self time by layer.
func (tr *tracer) selfTimes() []layerSelf {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, sp := range tr.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.StartNs, sp.EndNs})
		}
	}
	by := map[string]*layerSelf{}
	for _, sp := range tr.spans {
		self := float64(sp.EndNs-sp.StartNs-covered(sp.StartNs, sp.EndNs, children[sp.ID])) / 1e6
		layer, _, _ := strings.Cut(sp.Name, ".")
		ls := by[layer]
		if ls == nil {
			ls = &layerSelf{Layer: layer}
			by[layer] = ls
		}
		ls.Spans++
		ls.SelfMs += self
	}
	out := make([]layerSelf, 0, len(by))
	for _, ls := range by {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// printSelf writes the per-layer self-time table.
func (tr *tracer) printSelf(w io.Writer, ops int) {
	fmt.Fprintf(w, "%s: self time by layer over %d ops (traced and probe spans)\n", tr.workload, ops)
	for _, ls := range tr.selfTimes() {
		fmt.Fprintf(w, "  %-10s %7d spans %12.3f ms self %10.4f ms/op\n", ls.Layer, ls.Spans, ls.SelfMs, ratio(ls.SelfMs, float64(ops)))
	}
}

// write stores the spans as JSON at path, creating its directory.
func (tr *tracer) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	raw, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
