package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/baseline"
	"fastcppr/internal/core"
	"fastcppr/internal/lca"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

const (
	probeEdits = 30 // edit→requery steps of the edit probe
	probeForks = 50
	probeCands = 16 // candidates of the what-if probe
	probeCaps  = 20 // capture-filtered queries
)

// probe runs after a traced run's load. It calls the layers below the
// timer directly on the timer's current design, each call inside a span,
// and records the per-layer metrics the load itself cannot give.
func (r *run) probe(t *cppr.Timer) error {
	// Start from a collected heap, so the load's garbage is not charged
	// to the probes.
	runtime.GC()
	d := t.Design()
	root := r.tr.begin(0, "op.probe")
	defer r.tr.end(root, nil)
	m := r.layer
	nproc := runtime.NumCPU()

	var tree *lca.Tree
	times, err := rounds(r, root, r.probeReps,
		probeCall{"lca.New", func() error { tree = lca.New(d); return nil }},
		probeCall{"sta.NewIncr", func() error { sta.NewIncr(d); return nil }},
		probeCall{"sta.Propagate", func() error { sta.Propagate(d); return nil }})
	if err != nil {
		return err
	}
	m["lca.build_ms"], m["sta.incr_build_ms"], m["sta.propagate_ms"] = median(times[0]), median(times[1]), median(times[2])

	// The cold engine at k ∈ {1, 100, 10000}, against bnb, against
	// Timer.Run at k=100 and against one thread at k=10000.
	e := core.NewEngineWithTree(d, tree)
	bnb := baseline.NewBranchAndBound(d, tree)
	for _, k := range []int{1, 100, 10000} {
		var res core.Result
		var paths []model.Path
		calls := []probeCall{
			{"core.TopPaths", func() (err error) {
				res, err = e.TopPaths(r.ctx, core.Options{K: k, Mode: model.Setup, Threads: nproc})
				return err
			}},
			{"baseline.BranchAndBound", func() (err error) {
				paths, _, err = bnb.TopPaths(r.ctx, model.Setup, k, nproc)
				return err
			}},
		}
		switch k {
		case 100:
			calls = append(calls, probeCall{"cppr.Run", func() error {
				_, err := t.Run(r.ctx, cppr.Query{K: k, Mode: model.Setup, NoCache: true})
				return err
			}})
		case 10000:
			calls = append(calls, probeCall{"core.TopPaths", func() error {
				_, err := e.TopPaths(r.ctx, core.Options{K: k, Mode: model.Setup, Threads: 1})
				return err
			}})
		}
		times, err := rounds(r, root, r.probeReps, calls...)
		if err != nil {
			return err
		}
		ours := times[0]
		m[fmt.Sprintf("core.top_paths_ms_k%d", k)] = median(ours)
		m[fmt.Sprintf("baseline.bnb_ms_k%d", k)] = median(times[1])
		switch k {
		case 1:
			m["core.jobs_k1"] = float64(res.Stats.Jobs)
			m["core.candidates_k1"] = float64(res.Stats.Candidates)
		case 100:
			m["cppr.run_overhead_ms"] = median(each(times[2], ours, func(a, b float64) float64 { return a - b }))
		case 10000:
			m["core.candidates_k10000"] = float64(res.Stats.Candidates)
			m["core.kept_ratio"] = ratio(float64(res.Stats.Kept), float64(res.Stats.Candidates))
			m["core.reconstructed_k10000"] = float64(res.Stats.Reconstructed)
			m["sched.speedup"] = median(each(times[2], ours, ratio))
		}
		if k <= 100 {
			m[fmt.Sprintf("baseline.bnb_ratio_k%d", k)] = median(each(times[1], ours, ratio))
			r.check(func() error { return sameSlacks(res.Paths, paths) })
		}
	}
	times, err = rounds(r, root, 1, probeCall{"baseline.Pairwise", func() error {
		_, err := baseline.NewPairwise(d, tree).TopPaths(r.ctx, model.Setup, 100, nproc)
		return err
	}})
	if err != nil {
		return err
	}
	m["baseline.pairwise_ms_k100"] = times[0][0]

	// report_timing -to: top-10 paths into uniformly drawn capture FFs,
	// which neither cache serves.
	rng := rand.New(rand.NewSource(r.seed))
	times, err = rounds(r, root, probeCaps, probeCall{"cppr.Run", func() error {
		_, err := t.Run(r.ctx, cppr.Query{K: 10, Mode: model.Setup, FilterCapture: true, CaptureFF: model.FFID(rng.Intn(d.NumFFs()))})
		return err
	}})
	if err != nil {
		return err
	}
	m["cppr.capture_ms_p50"] = median(times[0])

	if err := r.probeWarm(t, root); err != nil {
		return err
	}
	if !r.wl.serves {
		return r.serveProbe(d)
	}
	return nil
}

// probeCall is one direct call of a probe, timed in a span named span.
type probeCall struct {
	span string
	fn   func() error
}

// rounds makes n rounds of calls, each round calling every one in turn,
// and returns each call's times in milliseconds. Taking the calls in turn
// keeps their ratios and differences steady while the host's speed
// drifts.
func rounds(r *run, parent int64, n int, calls ...probeCall) ([][]float64, error) {
	times := make([][]float64, len(calls))
	for i := 0; i < n; i++ {
		for c, pc := range calls {
			start := time.Now()
			if _, err := timed(r.tr, parent, pc.span, func() (struct{}, error) { return struct{}{}, pc.fn() }); err != nil {
				return nil, fmt.Errorf("probe %s: %w", pc.span, err)
			}
			times[c] = append(times[c], ms(time.Since(start)))
		}
	}
	return times, nil
}

// each applies f to the paired elements of a and b.
func each(a, b []float64, f func(a, b float64) float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// probeWarm measures the warm machinery on forks of t, leaving t as it
// was: edit→requery steps over every corner, forks, and one what-if batch
// at one worker and at the default.
func (r *run) probeWarm(t *cppr.Timer, root int64) error {
	m := r.layer
	d := t.Design()
	arcs := ffOutputArcs(d)
	rng := rand.New(rand.NewSource(r.seed))
	q := cppr.Query{K: 100, Mode: model.Setup, Corners: cppr.CornerAll}

	f := t.Fork()
	before := f.Stats().IncrRecomputed
	var rep cppr.Report
	times, err := rounds(r, root, probeEdits,
		probeCall{"cppr.SetArcDelay", func() error {
			a := d.Arcs[arcs[rng.Intn(len(arcs))]]
			return f.SetArcDelay(a.From, a.To, bump(a, rng))
		}},
		probeCall{"cppr.Run", func() (err error) {
			rep, err = f.Run(r.ctx, q)
			return err
		}})
	if err != nil {
		return err
	}
	m["cppr.edit_ms_p50"] = median(times[0])
	m["cppr.warm_run_ms_p50"] = median(times[1])
	m["sta.incr_recomputed_per_edit"] = float64(f.Stats().IncrRecomputed-before) / probeEdits
	twin := q
	twin.NoCache = true
	var cold cppr.Report
	if times, err = rounds(r, root, 1, probeCall{"cppr.Run", func() (err error) {
		cold, err = f.Run(r.ctx, twin)
		return err
	}}); err != nil {
		return err
	}
	m["cppr.cold_twin_ms"] = times[0][0]
	r.check(func() error {
		if digest(f.Design(), rep, q) != digest(f.Design(), cold, q) {
			return fmt.Errorf("probe: warm report differs from its NoCache twin")
		}
		return nil
	})

	if times, err = rounds(r, root, probeForks, probeCall{"cppr.Fork", func() error { t.Fork(); return nil }}); err != nil {
		return err
	}
	m["cppr.fork_us_p50"] = median(times[0]) * 1e3

	cands := candidates(d, arcs, probeCands, rng)
	qs := []cppr.Query{{K: 16, Mode: model.Setup}}
	serial, parallel := t.Fork(), t.Fork()
	serial.SetParallelism(cppr.Parallelism{Workers: 1})
	whatif := func(w *cppr.Timer) func() error {
		return func() error {
			_, err := w.WhatIf(r.ctx, cands, qs)
			return err
		}
	}
	if times, err = rounds(r, root, r.probeReps, probeCall{"cppr.WhatIf", whatif(serial)}, probeCall{"cppr.WhatIf", whatif(parallel)}); err != nil {
		return err
	}
	m["sched.whatif_speedup"] = median(each(times[0], times[1], ratio))
	return nil
}

// sameSlacks checks that two path lists carry the same slacks in order.
func sameSlacks(got, want []model.Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d paths, bnb has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Slack != want[i].Slack {
			return fmt.Errorf("path %d slack %v, bnb has %v", i, got[i].Slack, want[i].Slack)
		}
	}
	return nil
}
