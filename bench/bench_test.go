package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/model"
	"fastcppr/tau"
)

// TestBenchmarkJSON checks BENCHMARK.json's shape and that it declares
// exactly the workloads and metrics this program reports, and that the
// check catches a file that drifted from the program.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBenchmarkFile(raw); err != nil {
		t.Fatal(err)
	}
	bound := fmt.Sprintf(`"bound": %v}`, endToEnd[1].Bound)
	for _, c := range []struct{ old, new string }{
		{bound, `"bound": 0.2501}`},
		{`"name": "` + workloads[1].name + `"`, `"name": "renamed"`},
		{`"per_layer": [`, `"per_layer": [{"name": "extra", "unit": "ms", "better": "lower"},`},
		{`"run_seconds"`, `"extra": 1, "run_seconds"`},
	} {
		drifted := strings.Replace(string(raw), c.old, c.new, 1)
		if drifted == string(raw) {
			t.Fatalf("BENCHMARK.json holds no %s", c.old)
		}
		if checkBenchmarkFile([]byte(drifted)) == nil {
			t.Errorf("the check accepted BENCHMARK.json with %s replaced by %s", c.old, c.new)
		}
	}
}

// TestMoves checks that every per-layer metric names the end-to-end
// metric it should move, or none.
func TestMoves(t *testing.T) {
	e2e := map[string]bool{"none": true}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	for _, m := range perLayer {
		if !e2e[m.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, m.Moves)
		}
	}
}

// tinyDesign writes a small leon2 to a temporary file.
func tinyDesign(t *testing.T) (string, *model.Design) {
	t.Helper()
	spec, err := gen.PresetSpec("leon2", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 3
	d, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "design.tau")
	if err := tau.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path, d
}

// TestSmoke runs every workload briefly on a tiny design, untraced and
// traced, and checks that each emits every metric declared for it,
// finite and with its unit, with no failed operation.
func TestSmoke(t *testing.T) {
	path, _ := tinyDesign(t)
	t.Setenv("BENCH_BUILD_DIR", t.TempDir())
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) { smoke(t, wl, trace, path) })
		}
	}
}

func smoke(t *testing.T, wl *workload, trace bool, path string) {
	cfg := config{
		wl:        wl,
		seed:      5,
		seconds:   200 * time.Millisecond,
		trace:     trace,
		design:    path,
		setupReps: 1,
		probeReps: 1,
		serveWarm: 100 * time.Millisecond,
		httpProbe: 200 * time.Millisecond,
	}
	res := execute(context.Background(), cfg)
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
	}
	rec := &record{Workload: wl.name, Trace: trace, childResult: res}
	if !trace {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		rec.Metrics["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6
	}
	rec.Correct = completeMetrics(rec) == nil
	var out bytes.Buffer
	if err := emit(&out, rec, ""); err != nil {
		t.Fatal(err)
	}
	line, err := lastJSON[struct {
		Correct bool
		Failed  int
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}](out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	decl := declared(trace)
	if !line.Correct || line.Failed != 0 || len(line.Metrics) != len(decl) {
		t.Errorf("correct=%v failed=%d with %d of %d metrics", line.Correct, line.Failed, len(line.Metrics), len(decl))
	}
	for _, m := range decl {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
		}
	}
	if trace {
		raw, err := os.ReadFile(spansPath(wl.name, cfg.seed))
		if err != nil {
			t.Fatal(err)
		}
		var sf struct{ Spans []span }
		if err := json.Unmarshal(raw, &sf); err != nil || len(sf.Spans) == 0 {
			t.Errorf("span file holds %d spans (%v)", len(sf.Spans), err)
		}
	}
}

// TestChecksCatchCorruption feeds the output checks a report with one
// slack altered: each must fail.
func TestChecksCatchCorruption(t *testing.T) {
	_, d := tinyDesign(t)
	ctx := context.Background()
	q := cppr.Query{K: 16, Mode: model.Setup}
	arcs := ffOutputArcs(d)
	a := d.Arcs[arcs[0]]
	es := cppr.EditSet{{From: a.From, To: a.To, Delay: model.Window{Early: a.Delay.Early, Late: a.Delay.Late + 25}}}
	t0 := cppr.NewTimer(d)
	res, err := t0.WhatIf(ctx, []cppr.EditSet{es}, []cppr.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	good := res.Candidates[0].Reports[0]
	r := &run{ctx: ctx}
	if err := replay(r, d, es, q, good); err != nil {
		t.Fatalf("the true report fails its check: %v", err)
	}
	bad := good
	bad.Paths = append([]model.Path(nil), good.Paths...)
	bad.Paths[len(bad.Paths)-1].Slack++
	if replay(r, d, es, q, bad) == nil {
		t.Error("replay accepted a report with a corrupted slack")
	}
	if sameSlacks(bad.Paths, good.Paths) == nil {
		t.Error("sameSlacks accepted a corrupted slack")
	}
	if sameSlacks(good.Paths[:1], good.Paths) == nil {
		t.Error("sameSlacks accepted a truncated report")
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
		{[]float64{4, 1, 2}, 1, 2, 4},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{3, 5}, 2.5, 4, 5.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10.2, 10, 9.8, 10.1, 9.9}, "ok"},
		{[]float64{12.5, 12.4, 12.6, 12.45, 12.55}, "worse"},
		{[]float64{5, 5.1, 4.9, 5.05, 4.95}, "better"},
		{[]float64{5, 20, 8, 14, 11}, "unresolved"},
	} {
		if _, got := verdict(lower, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
