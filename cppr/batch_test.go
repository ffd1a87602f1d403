package cppr

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"fastcppr/gen"
	"fastcppr/model"
)

// TestReportBatchMatchesSerial runs a mixed batch — duplicate queries,
// AlgoLCA queries differing only in K (served by one merged run),
// different modes and algorithms — and checks every result against the
// same query run serially: whole paths for AlgoLCA, whose candidate
// order is total so a K-merged member equals its solo run byte for
// byte, and slacks for the baselines.
func TestReportBatchMatchesSerial(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(11))
	timer := NewTimer(d)
	queries := []Query{
		{K: 10, Mode: model.Setup},
		{K: 40, Mode: model.Setup},             // merged with the 10: same LCA group
		{K: 10, Mode: model.Setup},             // exact duplicate
		{K: 10, Mode: model.Setup, Threads: 3}, // differs only in Threads: merged too
		{K: 10, Mode: model.Hold},
		{K: 10, Mode: model.Setup, Algorithm: AlgoPairwise},
		{K: 10, Mode: model.Setup, Algorithm: AlgoBranchAndBound},
		{K: 5, Mode: model.Setup, FilterCapture: true, CaptureFF: 0},
		{K: 0, Mode: model.Setup}, // valid, empty report
	}
	results, err := timer.ReportBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, q := range queries {
		if results[i].Err != nil {
			t.Fatalf("query %d: %v", i, results[i].Err)
		}
		serial, err := timer.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if q.Algorithm == AlgoLCA {
			if got, want := results[i].Report.Paths, serial.Paths; !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: batch paths differ from serial:\n%+v\nvs\n%+v", i, got, want)
			}
			continue
		}
		got, want := sortedSlacks(results[i].Report.Paths), sortedSlacks(serial.Paths)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d paths, serial %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d slack %d: batch %v, serial %v", i, j, got[j], want[j])
			}
		}
		if results[i].Report.Algorithm != q.Algorithm {
			t.Errorf("query %d: Algorithm = %v, want %v", i, results[i].Report.Algorithm, q.Algorithm)
		}
	}
}

// TestReportBatchPrefixClipping pins the K-merging contract directly:
// a K=3 member of a group served by a K=50 run gets exactly the 3-prefix
// — the same paths, pins, launch, capture and credit included — and
// never aliases the larger member's slice.
func TestReportBatchPrefixClipping(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(5))
	timer := NewTimer(d)
	results, err := timer.ReportBatch(context.Background(),
		[]Query{{K: 3, Mode: model.Setup}, {K: 50, Mode: model.Setup}})
	if err != nil {
		t.Fatal(err)
	}
	small, large := results[0].Report.Paths, results[1].Report.Paths
	if len(small) != 3 || len(large) <= 3 {
		t.Fatalf("got %d and %d paths", len(small), len(large))
	}
	for i := range small {
		if !reflect.DeepEqual(small[i], large[i]) {
			t.Fatalf("path %d: %+v vs %+v — small report is not a prefix", i, small[i], large[i])
		}
	}
	// Mutating one member's slice must not leak into the other.
	small[0].Slack++
	if small[0].Slack == large[0].Slack {
		t.Fatal("clipped report aliases the group run's path slice")
	}
}

// TestReportBatchInvalidQuery checks per-query error isolation: a bad
// query fails alone, the rest of the batch is answered.
func TestReportBatchInvalidQuery(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(1))
	timer := NewTimer(d)
	results, err := timer.ReportBatch(context.Background(), []Query{
		{K: -1, Mode: model.Setup},
		{K: 5, Mode: model.Setup},
		{K: 1, Algorithm: Algorithm(99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrInvalidQuery) {
		t.Errorf("query 0: err = %v, want ErrInvalidQuery", results[0].Err)
	}
	if results[1].Err != nil || len(results[1].Report.Paths) == 0 {
		t.Errorf("query 1 not answered: %+v", results[1])
	}
	if !errors.Is(results[2].Err, ErrInvalidQuery) {
		t.Errorf("query 2: err = %v, want ErrInvalidQuery", results[2].Err)
	}
}

// TestReportBatchCanceled checks that a canceled context surfaces on
// both the batch error and the per-query errors.
func TestReportBatchCanceled(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(2))
	timer := NewTimer(d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := timer.ReportBatch(ctx, []Query{
		{K: 10, Mode: model.Setup},
		{K: 10, Mode: model.Hold},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch err = %v, want ErrCanceled", err)
	}
	for i := range results {
		if !errors.Is(results[i].Err, ErrCanceled) {
			t.Errorf("query %d: err = %v, want ErrCanceled", i, results[i].Err)
		}
	}
}

// TestReportBatchEmpty checks the no-op edge.
func TestReportBatchEmpty(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(0))
	timer := NewTimer(d)
	results, err := timer.ReportBatch(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("ReportBatch(nil) = %v, %v", results, err)
	}
}

// TestReportBatchPerQueryDeadline: a query's Timeout bounds only its
// own execution unit. The starved query fails with ErrDeadlineExceeded;
// the other batch entries complete and the batch-level error stays nil
// (the parent context is alive).
func TestReportBatchPerQueryDeadline(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(7))
	timer := NewTimer(d)
	queries := []Query{
		{K: 10, Mode: model.Setup, Timeout: time.Nanosecond},
		{K: 10, Mode: model.Hold},
	}
	results, err := timer.ReportBatch(context.Background(), queries)
	if err != nil {
		t.Fatalf("batch err = %v, want nil: one starved query must not fail the batch", err)
	}
	if !errors.Is(results[0].Err, ErrDeadlineExceeded) {
		t.Errorf("starved query err = %v, want ErrDeadlineExceeded", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("healthy query err = %v, want nil", results[1].Err)
	}
	if len(results[1].Report.Paths) == 0 {
		t.Error("healthy query returned no paths")
	}
}

// TestReportBatchTimeoutCoalescing: queries differing only in Timeout
// share one execution unit, and the shared run takes the most generous
// member budget — unlimited when any member is unlimited.
func TestReportBatchTimeoutCoalescing(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(7))
	timer := NewTimer(d)
	base := timer.Stats().ServedCoalesced
	queries := []Query{
		{K: 10, Mode: model.Setup, Timeout: time.Nanosecond},
		{K: 10, Mode: model.Setup}, // unlimited member lifts the limit
	}
	results, err := timer.ReportBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("query %d: %v (the unlimited member must lift the shared run's deadline)", i, results[i].Err)
		}
	}
	if got := timer.Stats().ServedCoalesced - base; got != 2 {
		t.Errorf("ServedCoalesced delta = %d, want 2 (both members shared one unit)", got)
	}
}
