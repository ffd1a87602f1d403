package main

import (
	"math"
	"sort"
)

// metric declares one reported number. The tables below are the single
// source of truth for names, units and bounds; BENCHMARK.json must agree
// with them (see checkBenchmarkFile).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the parent's median by
	// which the metric may worsen before a change counts as a regression.
	Bound float64
	// Moves (per-layer only) names the end-to-end metric a change in this
	// layer metric should move, or "none" for reference numbers.
	Moves string
}

// endToEnd are the numbers a user of the timer sees. Every workload
// reports every one of them from its untraced run, so a bound must hold
// on the noisiest workload. Each is at least three times the largest
// quartile spread of the calibration in README.md, capped at 0.25: the
// times spread up to 23% on a 2-vCPU VM whose speed drifts by tens of
// percent within minutes, peak RSS up to 5.3%.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.16},
}

// perLayer are the traced run's numbers, one layer each. Every workload
// reports every one of them: the layer probes run on each workload's own
// design after its load, and the serve metrics come from a short HTTP
// probe on workloads that do not serve.
var perLayer = []metric{
	// Set-up, split by the call that pays it (median over the set-ups).
	{Name: "tau.read_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "cppr.new_timer_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "cppr.warmup_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "lca.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "sta.incr_build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "sta.propagate_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},

	// The cold engine, called directly (Table IV's "ours"). The k=1 and
	// k=10000 metrics move the table4 workload of the same k; k=100 has
	// no cold workload and is a reference.
	{Name: "core.top_paths_ms_k1", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "core.top_paths_ms_k100", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "core.top_paths_ms_k10000", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "core.jobs_k1", Unit: "count", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "core.candidates_k1", Unit: "count", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "core.candidates_k10000", Unit: "count", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "core.kept_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "core.reconstructed_k10000", Unit: "count", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "sched.speedup", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "cppr.run_overhead_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "cppr.capture_ms_p50", Unit: "ms", Better: "lower", Moves: "none"},

	// The Table IV comparators. References, not gates.
	{Name: "baseline.bnb_ms_k1", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "baseline.bnb_ms_k100", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "baseline.bnb_ms_k10000", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "baseline.pairwise_ms_k100", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "baseline.bnb_ratio_k1", Unit: "ratio", Better: "higher", Moves: "none"},
	{Name: "baseline.bnb_ratio_k100", Unit: "ratio", Better: "higher", Moves: "none"},

	// The warm machinery: edits, warm requeries, forks, what-if.
	{Name: "cppr.edit_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "cppr.warm_run_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "cppr.cold_twin_ms", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "sta.incr_recomputed_per_edit", Unit: "count", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "cppr.fork_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "sched.whatif_speedup", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},

	// Cache outcomes and runtime cost over the workload's own load.
	{Name: "cppr.query_memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "core.job_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "core.job_cache_patched_ratio", Unit: "ratio", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "cppr.cone_skips_per_op", Unit: "count", Better: "higher", Moves: "latency_p50_ms"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "cpu_ms_per_op"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none"},

	// The service, from each response's TimingBreakdown and the client.
	{Name: "serve.wait_us_p99", Unit: "us", Better: "lower", Moves: "latency_p90_ms"},
	{Name: "serve.batch_wait_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "serve.exec_ms_p99", Unit: "ms", Better: "lower", Moves: "latency_p90_ms"},
	{Name: "serve.http_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "serve.mean_batch", Unit: "count", Better: "higher", Moves: "cpu_ms_per_op"},
	{Name: "serve.global_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "serve.edit_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Moves: "none"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower", Moves: "none"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals; NaN for no values. vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	i := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// median is statistics.median: the middle value, or the mean of the two
// middle ones.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(vals, n=4) with its default
// exclusive method, so the spreads this program reports are the ones a
// reader recomputes from the run files. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
