// Command cpprbench regenerates the tables and figures of the paper's
// evaluation section on synthetic benchmark stand-ins.
//
//	cpprbench -all                  # Table III, Table IV, Fig 5, Fig 6, accuracy
//	cpprbench -table4 -scale 0.05   # bigger designs, Table IV only
//	cpprbench -fig5 -designs leon2  # figures run on the leon2-class preset
//	cpprbench -fig6 -minbatchspeedup 1.1  # multi-core gate on the batch column
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
		table3   = flag.Bool("table3", false, "print Table III (benchmark statistics)")
		table4   = flag.Bool("table4", false, "print Table IV (runtime/memory comparison)")
		fig5     = flag.Bool("fig5", false, "print Figure 5 (runtime/memory vs k)")
		fig6     = flag.Bool("fig6", false, "print Figure 6 (runtime/memory vs threads)")
		accuracy = flag.Bool("accuracy", false, "run the accuracy audit")
		parFloor = flag.Float64("minbatchspeedup", 0, "with -fig6, fail unless the batch column's best speedup over 1 thread reaches this floor (enforced only on multi-core hosts)")
		all      = flag.Bool("all", false, "run everything")
		scale    = flag.Float64("scale", 0.02, "design scale (1.0 = published sizes)")
		designs  = flag.String("designs", "", "comma-separated preset subset (default all)")
		ks       = flag.String("k", "1,100,10000", "comma-separated k values for Table IV")
		threads  = flag.Int("threads", 0, "parallel thread count of the comparison (0 = min(8, host cores))")
		oursOnly = flag.Bool("oursonly", false, "measure only the LCA engine (full-size capability runs)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit; exit code 3)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if *all {
		*table3, *table4, *fig5, *fig6, *accuracy = true, true, true, true, true
	}
	if !*table3 && !*table4 && !*fig5 && !*fig6 && !*accuracy {
		fmt.Fprintln(os.Stderr, "cpprbench: select at least one of -table3 -table4 -fig5 -fig6 -accuracy -all")
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
