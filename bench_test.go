// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure, plus ablations for the design choices called out in
// DESIGN.md. The cmd/cpprbench tool runs the same experiment definitions
// with full sweeps and pretty tables; these benchmarks provide the
// `go test -bench` entry points and stable timings for regression
// tracking.
//
// Design sizes here default to scale 0.01 of the published Table III
// element counts so `go test -bench=. -benchmem` finishes in minutes on a
// laptop; cmd/cpprbench -scale raises the scale.
package fastcppr

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/internal/core"
	"fastcppr/internal/lca"
	"fastcppr/internal/sta"
	"fastcppr/liberty"
	"fastcppr/model"
	"fastcppr/netlist"
)

const benchScale = 0.01

// designCache shares generated designs and timers across benchmarks.
var (
	benchMu     sync.Mutex
	benchCache  = map[string]*model.Design{}
	timerCache  = map[string]*cppr.Timer{}
	engineCache = map[string]*core.Engine{}
)

func benchDesign(b *testing.B, name string) *model.Design {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchCache[name]; ok {
		return d
	}
	spec, err := gen.PresetSpec(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	d := gen.MustGenerate(spec)
	benchCache[name] = d
	return d
}

func benchTimer(b *testing.B, name string) *cppr.Timer {
	b.Helper()
	d := benchDesign(b, name)
	benchMu.Lock()
	defer benchMu.Unlock()
	if t, ok := timerCache[name]; ok {
		return t
	}
	t := cppr.NewTimer(d)
	timerCache[name] = t
	return t
}

func benchEngine(b *testing.B, name string) *core.Engine {
	b.Helper()
	d := benchDesign(b, name)
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := engineCache[name]; ok {
		return e
	}
	e := core.NewEngine(d)
	engineCache[name] = e
	return e
}

// runQuery executes one setup+hold top-k query, as Table IV measures.
// NoCache keeps every b.N iteration (and every thread-sweep variant —
// the query memo's key erases Threads) doing real engine work instead
// of serving from the timer's incremental caches.
func runQuery(b *testing.B, t *cppr.Timer, algo cppr.Algorithm, k, threads int) {
	b.Helper()
	for _, mode := range model.Modes {
		if _, err := t.Run(context.Background(), cppr.Query{K: k, Mode: mode, Threads: threads, Algorithm: algo, NoCache: true}); err != nil {
			b.Fatalf("%v: %v", algo, err)
		}
	}
}

// BenchmarkTable3Stats measures design generation plus the Table III
// statistics computation (including the FF-connectivity sweep).
func BenchmarkTable3Stats(b *testing.B) {
	for _, name := range []string{"vga_lcdv2", "leon2"} {
		b.Run(name, func(b *testing.B) {
			spec, err := gen.PresetSpec(name, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				d := gen.MustGenerate(spec)
				s := d.StatsWithConnectivity()
				if s.NumFFs == 0 {
					b.Fatal("empty design")
				}
			}
		})
	}
}

// BenchmarkTable4 measures every timer configuration of the paper's
// Table IV on representative low- and high-connectivity designs.
func BenchmarkTable4(b *testing.B) {
	algos := []cppr.Algorithm{cppr.AlgoLCA, cppr.AlgoPairwise, cppr.AlgoBlockwise, cppr.AlgoBranchAndBound}
	for _, name := range []string{"vga_lcdv2", "leon2"} {
		for _, k := range []int{1, 100, 10000} {
			for _, algo := range algos {
				b.Run(fmt.Sprintf("%s/k=%d/%s", name, k, algo), func(b *testing.B) {
					t := benchTimer(b, name)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runQuery(b, t, algo, k, 1)
					}
				})
			}
		}
	}
}

// BenchmarkFig5KSweep measures runtime versus k on the leon2-class
// design for the paper's algorithm (the paper's Figure 5 x-axis).
func BenchmarkFig5KSweep(b *testing.B) {
	for _, k := range []int{1, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			t := benchTimer(b, "leon2")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, t, cppr.AlgoLCA, k, 1)
			}
		})
	}
}

// BenchmarkFig6ThreadSweep measures runtime versus worker threads at
// k=1000 (the paper's Figure 6 x-axis). On a single-core host this
// measures scheduling overhead only; see EXPERIMENTS.md.
func BenchmarkFig6ThreadSweep(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			t := benchTimer(b, "leon2")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, t, cppr.AlgoLCA, 1000, threads)
			}
		})
	}
}

// BenchmarkAblationDepth verifies the O(nD) claim: designs of identical
// element counts whose clock trees differ only in depth D.
func BenchmarkAblationDepth(b *testing.B) {
	for _, depth := range []int{10, 40, 80} {
		b.Run(fmt.Sprintf("D=%d", depth), func(b *testing.B) {
			spec := gen.Medium(77)
			spec.NumFFs = 600
			spec.CombPerLayer = 600
			spec.TargetDepth = depth
			spec.DepthJitter = 0
			d := gen.MustGenerate(spec)
			e := core.NewEngine(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TopPaths(context.Background(), core.Options{K: 1, Mode: model.Setup, Threads: 1})
			}
		})
	}
}

// BenchmarkAblationSize verifies the O(n) factor: designs with the same
// clock depth D whose element counts scale 1x/2x/4x.
func BenchmarkAblationSize(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("n=%dx", mult), func(b *testing.B) {
			spec := gen.Medium(88)
			spec.TargetDepth = 24
			spec.DepthJitter = 0
			spec.NumFFs = 400 * mult
			spec.CombPerLayer = 400 * mult
			d := gen.MustGenerate(spec)
			e := core.NewEngine(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TopPaths(context.Background(), core.Options{K: 1, Mode: model.Setup, Threads: 1})
			}
		})
	}
}

// BenchmarkAblationGlobalBound quantifies the cross-job pruning: same
// query with and without the shared k-th-best bound.
func BenchmarkAblationGlobalBound(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "pruned"
		if disable {
			name = "unpruned"
		}
		b.Run(name, func(b *testing.B) {
			e := benchEngine(b, "leon2")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TopPaths(context.Background(), core.Options{K: 10000, Mode: model.Setup, Threads: 1, DisableGlobalBound: disable})
			}
		})
	}
}

// BenchmarkSubstratePropagation isolates the shared propagation cost: a
// single graph-based arrival pass (the unit the O(nD) bound multiplies).
func BenchmarkSubstratePropagation(b *testing.B) {
	d := benchDesign(b, "leon2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sta.Propagate(d)
		if !g.Valid[d.Root] {
			b.Fatal("bad propagation")
		}
	}
}

// BenchmarkSubstrateTreeBuild isolates the per-design preprocessing
// (clock-tree compaction, Euler RMQ).
func BenchmarkSubstrateTreeBuild(b *testing.B) {
	d := benchDesign(b, "leon2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := lca.New(d)
		if t.NumClockPins() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkFrontendElaborate measures the front-end flow: random
// netlist synthesis is excluded; delay calculation + graph construction
// is the measured unit.
func BenchmarkFrontendElaborate(b *testing.B) {
	lib := liberty.Demo()
	n := netlist.Random(netlist.RandomSpec{Seed: 3, FFs: 256, Gates: 2048, ClockLevels: 5, Inputs: 32, Outputs: 32})
	wm := netlist.DefaultWireModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Elaborate(lib, wm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontendFullFlow measures netlist -> elaboration -> top-100
// post-CPPR paths, the complete pipeline a user runs.
func BenchmarkFrontendFullFlow(b *testing.B) {
	lib := liberty.Demo()
	n := netlist.Random(netlist.RandomSpec{Seed: 4, FFs: 128, Gates: 1024, ClockLevels: 4, Inputs: 16, Outputs: 16})
	wm := netlist.DefaultWireModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := n.Elaborate(lib, wm)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := cppr.NewTimer(d).Run(context.Background(), cppr.Query{K: 100, Mode: model.Setup})
		if err != nil || len(rep.Paths) == 0 {
			b.Fatal("empty report")
		}
	}
}

// batchQueries is the batch-executor workload: 8 independent queries a
// signoff client would issue together — both modes at several K values.
// ReportBatch merges them into one LCA run per mode (exact top-k paths
// are prefix-consistent across K) and shares pooled scratch, so the
// batch beats the same 8 queries run serially even on one core.
// NoCache keeps every b.N iteration doing real work — otherwise the
// cross-call query memo would serve every rep after the first and the
// batch-vs-serial comparison would measure map lookups.
var batchQueries = []cppr.Query{
	{K: 1, Mode: model.Setup, NoCache: true},
	{K: 10, Mode: model.Setup, NoCache: true},
	{K: 100, Mode: model.Setup, NoCache: true},
	{K: 1000, Mode: model.Setup, NoCache: true},
	{K: 1, Mode: model.Hold, NoCache: true},
	{K: 10, Mode: model.Hold, NoCache: true},
	{K: 100, Mode: model.Hold, NoCache: true},
	{K: 1000, Mode: model.Hold, NoCache: true},
}

// BenchmarkBatchReportBatch8 measures ReportBatch on the 8-query batch
// workload against the largest generated design.
func BenchmarkBatchReportBatch8(b *testing.B) {
	t := benchTimer(b, "leon2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := t.ReportBatch(context.Background(), batchQueries)
		if err != nil {
			b.Fatal(err)
		}
		for qi := range results {
			if results[qi].Err != nil {
				b.Fatal(results[qi].Err)
			}
		}
	}
}

// BenchmarkBatchSerial8 is the baseline: the same 8 queries, one Run
// call each.
func BenchmarkBatchSerial8(b *testing.B) {
	t := benchTimer(b, "leon2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range batchQueries {
			if _, err := t.Run(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchDistinct8 measures the no-merge case — 8 queries that
// cannot share a run (distinct algorithms and capture filters) — to pin
// the executor's overhead when only scratch pooling is shared.
func BenchmarkBatchDistinct8(b *testing.B) {
	t := benchTimer(b, "vga_lcdv2")
	queries := []cppr.Query{
		{K: 100, Mode: model.Setup, NoCache: true},
		{K: 100, Mode: model.Hold, NoCache: true},
		{K: 100, Mode: model.Setup, Algorithm: cppr.AlgoPairwise},
		{K: 100, Mode: model.Hold, Algorithm: cppr.AlgoPairwise},
		{K: 100, Mode: model.Setup, Algorithm: cppr.AlgoBranchAndBound},
		{K: 100, Mode: model.Hold, Algorithm: cppr.AlgoBranchAndBound},
		{K: 10, Mode: model.Setup, FilterCapture: true, CaptureFF: 0, NoCache: true},
		{K: 10, Mode: model.Setup, FilterCapture: true, CaptureFF: 1, NoCache: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := t.ReportBatch(context.Background(), queries)
		if err != nil {
			b.Fatal(err)
		}
		for qi := range results {
			if results[qi].Err != nil {
				b.Fatal(results[qi].Err)
			}
		}
	}
}

// BenchmarkTimerPrep measures full timer construction (everything a
// standalone tool would amortise across queries).
func BenchmarkTimerPrep(b *testing.B) {
	d := benchDesign(b, "vga_lcdv2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := cppr.NewTimer(d)
		if t.Design() != d {
			b.Fatal("bad timer")
		}
	}
}
