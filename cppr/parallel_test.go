package cppr_test

import (
	"bytes"
	"context"
	"testing"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/model"
)

// batchBytes runs a batch and serialises every report with Elapsed
// zeroed, failing on any per-query error.
func batchBytes(t *testing.T, d *model.Design, timer *cppr.Timer, queries []cppr.Query) [][]byte {
	t.Helper()
	results, err := timer.ReportBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		out[i] = reportBytes(t, d, r.Report, queries[i].Mode, queries[i].K)
	}
	return out
}

// TestParallelismWorkersDeterminism is the executor battery: the same
// mixed batch — single-corner queries, multi-corner
// fan-outs, both modes — must serialise byte-identically under worker
// budgets 1, 2 and 8. The 1-worker run is the reference; every other
// budget only changes which deque a unit runs on.
func TestParallelismWorkersDeterminism(t *testing.T) {
	d := mcmmDesign(t, 710, 3)
	queries := []cppr.Query{
		{K: 50, Mode: model.Setup},
		{K: 10, Mode: model.Hold, Corners: cppr.CornerAll},
		{K: 25, Mode: model.Setup, Corners: cppr.CornerBit(1) | cppr.CornerBit(2)},
		{K: 5, Mode: model.Hold},
	}
	ref := func() [][]byte {
		timer := cppr.NewTimer(d)
		timer.SetParallelism(cppr.Parallelism{Workers: 1, QueryThreads: 1})
		return batchBytes(t, d, timer, queries)
	}()
	for _, workers := range []int{2, 8} {
		timer := cppr.NewTimer(d)
		timer.SetParallelism(cppr.Parallelism{Workers: workers, QueryThreads: workers})
		got := batchBytes(t, d, timer, queries)
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Fatalf("workers %d query %d differs from 1-worker reference:\n%s\n---\n%s",
					workers, i, ref[i], got[i])
			}
		}
	}
}

// TestParallelismStealHeavySkew: one giant unit plus many tiny ones —
// the shape that starves a static splitter, because the giant unit's
// jobs must be stolen by workers that finished their tiny units. The
// results must still match the serial reference exactly.
func TestParallelismStealHeavySkew(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(33))
	queries := []cppr.Query{{K: 400, Mode: model.Setup}}
	for i := 0; i < 15; i++ {
		queries = append(queries, cppr.Query{K: 1 + i%4, Mode: model.Modes[i%2]})
	}
	serial := func() [][]byte {
		timer := cppr.NewTimer(d)
		timer.SetParallelism(cppr.Parallelism{Workers: 1})
		return batchBytes(t, d, timer, queries)
	}()
	timer := cppr.NewTimer(d)
	timer.SetParallelism(cppr.Parallelism{Workers: 8})
	got := batchBytes(t, d, timer, queries)
	for i := range serial {
		if !bytes.Equal(serial[i], got[i]) {
			t.Fatalf("skewed batch query %d differs under 8 workers", i)
		}
	}
}

// TestParallelismWarmMemo: a repeat of the same workload on a warm
// timer is served through the memo path (lock-free lookup under the
// executor) and must still serialise identically to the cold run.
func TestParallelismWarmMemo(t *testing.T) {
	d := mcmmDesign(t, 711, 2)
	queries := []cppr.Query{
		{K: 30, Mode: model.Setup, Corners: cppr.CornerAll},
		{K: 30, Mode: model.Setup},
		{K: 10, Mode: model.Hold},
	}
	timer := cppr.NewTimer(d)
	timer.SetParallelism(cppr.Parallelism{Workers: 8, QueryThreads: 8})
	cold := batchBytes(t, d, timer, queries)
	warm := batchBytes(t, d, timer, queries)
	for i := range cold {
		if !bytes.Equal(cold[i], warm[i]) {
			t.Fatalf("warm query %d differs from its cold run", i)
		}
	}
	if hits := timer.Stats().QueryMemoHits; hits == 0 {
		t.Fatalf("warm batch took no query-memo hits (stats: %+v)", timer.Stats())
	}
}

// TestParallelismIntraQueryKernel: QueryThreads drives the partitioned
// propagation kernel for standalone queries; every setting must match
// the single-threaded report byte for byte.
func TestParallelismIntraQueryKernel(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(34))
	ctx := context.Background()
	const k = 60
	ref := func(mode model.Mode) []byte {
		timer := cppr.NewTimer(d)
		timer.SetParallelism(cppr.Parallelism{QueryThreads: 1})
		rep, err := timer.Run(ctx, cppr.Query{K: k, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return reportBytes(t, d, rep, mode, k)
	}
	for _, mode := range model.Modes {
		want := ref(mode)
		for _, qt := range []int{2, 8} {
			timer := cppr.NewTimer(d)
			timer.SetParallelism(cppr.Parallelism{QueryThreads: qt})
			rep, err := timer.Run(ctx, cppr.Query{K: k, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, d, rep, mode, k); !bytes.Equal(want, got) {
				t.Fatalf("%v QueryThreads=%d differs from single-threaded reference", mode, qt)
			}
		}
	}
}

// TestParallelismPostCPPRSlacks: the multi-corner endpoint sweep under
// the executor matches the serial sweep at every worker budget.
func TestParallelismPostCPPRSlacks(t *testing.T) {
	d := mcmmDesign(t, 712, 3)
	ctx := context.Background()
	for _, mode := range model.Modes {
		timer := cppr.NewTimer(d)
		timer.SetParallelism(cppr.Parallelism{Workers: 1, QueryThreads: 1})
		want, err := timer.PostCPPRSlacksCtx(ctx, cppr.Query{Mode: mode, Corners: cppr.CornerAll})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			timer := cppr.NewTimer(d)
			timer.SetParallelism(cppr.Parallelism{Workers: workers, QueryThreads: workers})
			got, err := timer.PostCPPRSlacksCtx(ctx, cppr.Query{Mode: mode, Corners: cppr.CornerAll})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v workers %d: %d slacks, want %d", mode, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v workers %d endpoint %d: %+v, want %+v", mode, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelismConfigSurface pins the config API: settings round-trip,
// the zero value is the default, and installs are visible to subsequent
// reads (the atomic-publish contract).
func TestParallelismConfigSurface(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(5))
	timer := cppr.NewTimer(d)
	if got := timer.Parallelism(); got != (cppr.Parallelism{}) {
		t.Fatalf("fresh timer parallelism = %+v, want zero", got)
	}
	p := cppr.Parallelism{Workers: 3, QueryThreads: 2}
	timer.SetParallelism(p)
	if got := timer.Parallelism(); got != p {
		t.Fatalf("parallelism = %+v, want %+v", got, p)
	}
	// A query under the installed budget still answers correctly, and
	// Query.Threads overrides QueryThreads without error.
	for _, q := range []cppr.Query{
		{K: 5, Mode: model.Setup},
		{K: 5, Mode: model.Setup, Threads: 1},
	} {
		if _, err := timer.Run(context.Background(), q); err != nil {
			t.Fatalf("query %+v under %+v: %v", q, p, err)
		}
	}
	timer.SetParallelism(cppr.Parallelism{})
	if got := timer.Parallelism(); got != (cppr.Parallelism{}) {
		t.Fatalf("reset parallelism = %+v, want zero", got)
	}
}
