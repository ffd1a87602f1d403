package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"fastcppr/cppr"
	"fastcppr/model"
	"fastcppr/tau"
)

// config is one workload run as the child executes it.
type config struct {
	wl        *workload
	seed      int64
	seconds   time.Duration
	trace     bool
	design    string // tau file the parent generated
	setupReps int    // set-ups per run; setup_s is their median
	probeReps int    // rounds of each direct layer call in a traced run's probe
	// serveWarm is the open-loop warm-up before measuring; httpProbe the
	// length of the HTTP probe a traced run of a non-serving workload makes.
	serveWarm time.Duration
	httpProbe time.Duration
}

// run is the child's state for one workload run.
type run struct {
	config
	ctx context.Context
	tr  *tracer // nil in an untraced run

	attempted, failed int
	errs              []string

	// lat holds the untraced ops' latencies, latTraced the traced ones'
	// (a traced run traces half of them); a failed op counts as +Inf.
	lat, latTraced []float64
	ops            int
	load           window // what the measured ops cost, checks excluded

	setups []setupTimes
	layer  map[string]float64

	cache cppr.TimerStats // timer counter deltas over the load
}

// execute runs cfg's workload in this process.
func execute(ctx context.Context, cfg config) childResult {
	r := &run{config: cfg, ctx: ctx, layer: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer(cfg.wl.name)
	}
	if err := cfg.wl.run(r); err != nil {
		r.fail(err)
	}
	res := childResult{Attempted: max(r.attempted, 1), Failed: r.failed, Samples: len(r.lat) + len(r.latTraced), Errors: r.errs}
	res.Metrics = r.metrics()
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Metrics, name)
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is %v", name, v))
		}
	}
	if r.tr != nil {
		r.tr.printSelf(os.Stderr, res.Samples)
		path := spansPath(cfg.wl.name, cfg.seed)
		if err := r.tr.write(path, newStamp(cfg.seed)); err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "spans: "+err.Error())
		} else {
			fmt.Fprintf(os.Stderr, "%s: spans written to %s\n", cfg.wl.name, path)
		}
	}
	return res
}

// fail counts one failed operation, keeping the first messages.
func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// check runs one output check, off the clock, as an attempted operation.
func (r *run) check(fn func() error) {
	r.attempted++
	if err := fn(); err != nil {
		r.fail(fmt.Errorf("check: %w", err))
	}
}

// setupTimes is one set-up's time, split by the calls that pay it.
type setupTimes struct {
	total, read, newTimer, warmup time.Duration
}

// setUp builds the workload's state r.setupReps times and keeps the last
// one; each build is one measured set-up. release frees a state that is
// replaced.
func setUp[T any](r *run, build func(st *setupTimes) (T, error), release func(T)) (T, error) {
	var cur T
	for i := 0; i < r.setupReps; i++ {
		if i > 0 && release != nil {
			release(cur)
		}
		// Drop the replaced state before collecting, so set-ups do not
		// pay for each other's garbage and peak RSS holds one state.
		var zero T
		cur = zero
		runtime.GC()
		var st setupTimes
		root := r.tr.begin(0, "op.setup")
		start := time.Now()
		v, err := build(&st)
		st.total = time.Since(start)
		r.tr.end(root, nil)
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		cur = v
		r.setups = append(r.setups, st)
	}
	return cur, nil
}

// readDesign reads the design file as part of a set-up.
func (r *run) readDesign(st *setupTimes) (*model.Design, error) {
	start := time.Now()
	d, err := timed(r.tr, 0, "tau.ReadFile", func() (*model.Design, error) { return tau.ReadFile(r.design) })
	st.read = time.Since(start)
	return d, err
}

// newTimer builds a timer as part of a set-up.
func (r *run) newTimer(st *setupTimes, d *model.Design) *cppr.Timer {
	start := time.Now()
	t, _ := timed(r.tr, 0, "cppr.NewTimer", func() (*cppr.Timer, error) { return cppr.NewTimer(d), nil })
	st.newTimer = time.Since(start)
	return t
}

// warm runs a set-up's warm-up queries.
func (st *setupTimes) warm(fn func() error) error {
	start := time.Now()
	err := fn()
	st.warmup += time.Since(start)
	return err
}

// runQuery is Timer.Run inside a span.
func runQuery(ctx context.Context, tr *tracer, parent int64, t *cppr.Timer, q cppr.Query) (cppr.Report, error) {
	id := tr.begin(parent, "cppr.Run")
	rep, err := t.Run(ctx, q)
	if tr != nil {
		attrs := map[string]any{"k": q.K, "mode": q.Mode.String(), "no_cache": q.NoCache, "paths": len(rep.Paths)}
		if err != nil {
			attrs["error"] = err.Error()
		}
		tr.end(id, attrs)
	}
	return rep, err
}

// digest is a report's byte-for-byte identity: the SHA-256 of its JSON
// form with the elapsed time zeroed.
func digest(d *model.Design, rep cppr.Report, q cppr.Query) [sha256.Size]byte {
	rep.Elapsed = 0
	// ReportJSON holds only strings, numbers, bools and slices of them,
	// which always marshal.
	raw, _ := json.Marshal(rep.JSON(d, q.Mode, q.K))
	return sha256.Sum256(raw)
}

// closedLoop calls op from one goroutine until the ops themselves have
// taken r.seconds, and at least twice. between runs after every op with
// the clock stopped, for output checks and anything else that must not
// count; last is set after the final op. Only the ops are charged to
// r.load, though a collection the checks' garbage triggers can still run
// during an op. In a traced run a coin picks the ops to trace, so the
// traced and untraced medians of one run give the tracing overhead.
func (r *run) closedLoop(name string, op func(i int, tr *tracer, parent int64) error, between func(i int, last bool)) {
	coin := traceCoin(r.seed)
	var spent time.Duration
	for i := 0; (spent < r.seconds || i < 2) && r.ctx.Err() == nil; i++ {
		var tr *tracer
		if coin() {
			tr = r.tr
		}
		w := openWindow()
		start := time.Now()
		root := tr.begin(0, name)
		err := op(i, tr, root)
		tr.end(root, nil)
		took := time.Since(start)
		r.load.add(w.close())
		spent += took
		r.attempted++
		r.ops++
		v := ms(took)
		if err != nil {
			r.fail(err)
			v = math.Inf(1)
		}
		if tr != nil {
			r.latTraced = append(r.latTraced, v)
		} else {
			r.lat = append(r.lat, v)
		}
		if between != nil {
			between(i, spent >= r.seconds && i >= 1)
		}
	}
}

// traceCoin decides which operations a traced run traces: the second,
// and then half of them at random, drawn from their own stream so the
// workload's inputs do not change. The first two are one of each, so even
// a short run has both medians. A coin rather than alternation, which
// would line up with the Table IV shape cycle and with the serving mix's
// edit period.
func traceCoin(seed int64) func() bool {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	return func() bool {
		if n++; n <= 2 {
			return n == 2
		}
		return rng.Intn(2) == 1
	}
}

// cpuTime is the CPU time this process has used, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what a stretch of load cost the process: CPU time, and the
// runtime/metrics named by runtimeNames.
type window struct {
	cpu time.Duration
	rt  [3]float64
}

// openWindow starts a window; close turns it into the cost since.
func openWindow() window { return window{cpuTime(), readRuntime()} }

func (w window) close() window {
	end := readRuntime()
	for i := range end {
		end[i] -= w.rt[i]
	}
	return window{cpuTime() - w.cpu, end}
}

// add sums the cost of another window into w.
func (w *window) add(o window) {
	w.cpu += o.cpu
	for i := range w.rt {
		w.rt[i] += o.rt[i]
	}
}

// runtimeNames are the runtime/metrics the load is charged with: GC CPU,
// the available CPU it is a share of, and bytes allocated.
var runtimeNames = [3]string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() [3]float64 {
	var samples [3]metrics.Sample
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples[:])
	var out [3]float64
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

// addStats charges the timer counters that moved between before and
// after to the load.
func (r *run) addStats(before, after cppr.TimerStats) {
	r.cache.QueryMemoHits += after.QueryMemoHits - before.QueryMemoHits
	r.cache.QueryMemoMisses += after.QueryMemoMisses - before.QueryMemoMisses
	r.cache.JobCacheHits += after.JobCacheHits - before.JobCacheHits
	r.cache.JobCacheMisses += after.JobCacheMisses - before.JobCacheMisses
	r.cache.JobCachePatched += after.JobCachePatched - before.JobCachePatched
	r.cache.ConeSkips += after.ConeSkips - before.ConeSkips
}

// metrics computes the run's reported numbers: the end-to-end ones
// (less peak RSS, which the parent measures) in an untraced run, the
// per-layer ones in a traced run.
func (r *run) metrics() map[string]float64 {
	if r.tr == nil {
		var setup []float64
		for _, st := range r.setups {
			setup = append(setup, st.total.Seconds())
		}
		return map[string]float64{
			"setup_s":        median(setup),
			"latency_p50_ms": percentile(r.lat, 50),
			"latency_p90_ms": percentile(r.lat, 90),
			"cpu_ms_per_op":  ratio(ms(r.load.cpu), float64(r.ops)),
		}
	}
	m := r.layer
	var read, newTimer, warmup []float64
	for _, st := range r.setups {
		read = append(read, ms(st.read))
		newTimer = append(newTimer, ms(st.newTimer))
		warmup = append(warmup, ms(st.warmup))
	}
	m["tau.read_ms"] = median(read)
	m["cppr.new_timer_ms"] = median(newTimer)
	m["cppr.warmup_ms"] = median(warmup)
	c := r.cache
	m["cppr.query_memo_hit_ratio"] = ratio(float64(c.QueryMemoHits), float64(c.QueryMemoHits+c.QueryMemoMisses))
	lookups := float64(c.JobCacheHits + c.JobCacheMisses)
	m["core.job_cache_hit_ratio"] = ratio(float64(c.JobCacheHits), lookups)
	m["core.job_cache_patched_ratio"] = ratio(float64(c.JobCachePatched), lookups)
	m["cppr.cone_skips_per_op"] = ratio(float64(c.ConeSkips), float64(r.ops))
	m["runtime.gc_cpu_frac"] = ratio(r.load.rt[0], r.load.rt[1])
	m["runtime.alloc_mb_per_op"] = ratio(r.load.rt[2]/1e6, float64(r.ops))
	m["trace.overhead_ratio"] = ratio(median(r.latTraced), median(r.lat))
	return m
}
