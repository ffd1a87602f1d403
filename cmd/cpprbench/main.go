// Command cpprbench regenerates the tables and figures of the paper's
// evaluation section on synthetic benchmark stand-ins.
//
//	cpprbench -all                  # Table III, Table IV, Fig 5, Fig 6, accuracy
//	cpprbench -table4 -scale 0.05   # bigger designs, Table IV only
//	cpprbench -fig5 -designs leon2  # figures run on the leon2-class preset
//
// Scale 1.0 reproduces the published element counts; the default 0.02
// sizes the full suite for a laptop-class machine (the algorithms'
// relative behaviour — who wins, where the crossovers are — is preserved,
// see DESIGN.md §3).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"fastcppr/cppr"
	"fastcppr/internal/experiments"
)

func main() {
	var (
		table3    = flag.Bool("table3", false, "print Table III (benchmark statistics)")
		table4    = flag.Bool("table4", false, "print Table IV (runtime/memory comparison)")
		fig5      = flag.Bool("fig5", false, "print Figure 5 (runtime/memory vs k)")
		fig6      = flag.Bool("fig6", false, "print Figure 6 (runtime/memory vs threads)")
		accuracy  = flag.Bool("accuracy", false, "run the accuracy audit")
		batch     = flag.Bool("batch", false, "measure the batch query executor vs serial queries")
		batchOut  = flag.String("batchjson", "BENCH_batch.json", "with -batch, write machine-readable stats to this file (empty = none)")
		mcmm      = flag.Bool("mcmm", false, "measure multi-corner fan-out vs serial per-corner analysis")
		corners   = flag.Int("corners", 4, "with -mcmm, the corner count of the fan-out")
		mcmmOut   = flag.String("mcmmjson", "BENCH_mcmm.json", "with -mcmm, write machine-readable stats to this file (empty = none)")
		incr      = flag.Bool("incremental", false, "measure warm edit→requery through the incremental caches vs cold runs")
		incrOut   = flag.String("incrementaljson", "BENCH_incremental.json", "with -incremental, write machine-readable stats to this file (empty = none)")
		srvBench  = flag.Bool("serve", false, "measure the HTTP service front end: latency/QPS at several client counts, coalescing on vs off")
		srvOut    = flag.String("servejson", "BENCH_serve.json", "with -serve, write machine-readable stats to this file (empty = none)")
		parallel  = flag.Bool("parallel", false, "measure the work-stealing executor and partitioned kernel at 1/2/4/8 threads")
		parOut    = flag.String("paralleljson", "BENCH_parallel.json", "with -parallel, write machine-readable stats to this file (empty = none)")
		parFloor  = flag.Float64("minbatchspeedup", 0, "with -parallel, fail unless the best batch speedup reaches this floor (enforced only on multi-core hosts)")
		signoff   = flag.Bool("signoff", false, "run the industrial-CRPR-semantics smoke: every SDC knob verified against the brute-force oracle")
		signOut   = flag.String("signoffjson", "BENCH_signoff.json", "with -signoff, write machine-readable stats to this file (empty = none)")
		whatif    = flag.Bool("whatif", false, "measure speculative what-if candidate scoring vs a fresh timer per candidate")
		whatifOut = flag.String("whatifjson", "BENCH_whatif.json", "with -whatif, write machine-readable stats to this file (empty = none)")
		hierBench = flag.Bool("hier", false, "measure hierarchical CPPR: reduced-graph timing via block macromodel extraction vs the flat graph")
		hierOut   = flag.String("hierjson", "BENCH_hier.json", "with -hier, write machine-readable stats to this file (empty = none)")
		all       = flag.Bool("all", false, "run everything")
		scale     = flag.Float64("scale", 0.02, "design scale (1.0 = published sizes)")
		designs   = flag.String("designs", "", "comma-separated preset subset (default all)")
		ks        = flag.String("k", "1,100,10000", "comma-separated k values for Table IV")
		threads   = flag.Int("threads", 0, "parallel thread count of the comparison (0 = min(8, host cores))")
		oursOnly  = flag.Bool("oursonly", false, "measure only the LCA engine (full-size capability runs)")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit; exit code 3)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if *all {
		*table3, *table4, *fig5, *fig6, *accuracy, *batch, *mcmm, *incr, *srvBench, *parallel, *signoff, *whatif, *hierBench = true, true, true, true, true, true, true, true, true, true, true, true, true
	}
	if !*table3 && !*table4 && !*fig5 && !*fig6 && !*accuracy && !*batch && !*mcmm && !*incr && !*srvBench && !*parallel && !*signoff && !*whatif && !*hierBench {
		fmt.Fprintln(os.Stderr, "cpprbench: select at least one of -table3 -table4 -fig5 -fig6 -accuracy -batch -mcmm -incremental -serve -parallel -signoff -whatif -hier -all")
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := experiments.Config{
		Ctx:             ctx,
		Out:             os.Stdout,
		Scale:           *scale,
		Threads:         *threads,
		OursOnly:        *oursOnly,
		Corners:         *corners,
		MinBatchSpeedup: *parFloor,
	}
	if *designs != "" {
		cfg.Designs = strings.Split(*designs, ",")
	}
	for _, part := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad -k value %q: %v", part, err))
		}
		cfg.Ks = append(cfg.Ks, k)
	}

	fmt.Printf("# %s\n\n", experiments.HostInfo())
	run := func(name string, enabled bool, f func(experiments.Config) error) {
		if !enabled {
			return
		}
		fmt.Printf("### %s\n\n", name)
		if err := f(cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	run("Accuracy audit", *accuracy, experiments.Accuracy)
	run("Table III", *table3, experiments.Table3)
	run("Table IV", *table4, experiments.Table4)
	run("Figure 5", *fig5, experiments.Fig5)
	run("Figure 6", *fig6, experiments.Fig6)
	// The batch and MCMM experiments each emit a machine-readable stats
	// file; give each its own JSONOut so -all can produce both.
	runJSON := func(name string, enabled bool, path string, f func(experiments.Config) error) {
		if !enabled {
			return
		}
		jcfg := cfg
		if path != "" {
			out, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			jcfg.JSONOut = out
			defer out.Close()
		}
		fmt.Printf("### %s\n\n", name)
		if err := f(jcfg); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	runJSON("Batch executor", *batch, *batchOut, experiments.Batch)
	runJSON("MCMM fan-out", *mcmm, *mcmmOut, experiments.MCMM)
	runJSON("Incremental edit→requery", *incr, *incrOut, experiments.Incremental)
	runJSON("Service front end", *srvBench, *srvOut, experiments.Serve)
	runJSON("Thread scaling", *parallel, *parOut, experiments.Parallel)
	runJSON("Signoff semantics smoke", *signoff, *signOut, experiments.Signoff)
	runJSON("What-if engine", *whatif, *whatifOut, experiments.WhatIf)
	runJSON("Hierarchical timing", *hierBench, *hierOut, experiments.Hier)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpprbench:", err)
	os.Exit(exitCode(err))
}

// exitCode maps the query-path error taxonomy onto process exit codes:
// 3 timeout/cancel, 4 budget exhaustion, 5 contained internal error.
func exitCode(err error) int {
	var ie *cppr.InternalError
	switch {
	case errors.Is(err, cppr.ErrCanceled), errors.Is(err, cppr.ErrDeadlineExceeded):
		return 3
	case errors.Is(err, cppr.ErrBudgetExhausted):
		return 4
	case errors.As(err, &ie):
		return 5
	default:
		return 1
	}
}
