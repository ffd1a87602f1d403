// Command bench is fastcppr's benchmark: two of the paper's Table IV
// columns run cold, a multi-corner ECO edit→requery loop, a what-if
// sweep, and an open-loop HTTP serving mix at two rates, each checked for
// correct output. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload table4_k1 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out run.jsonl
//	bash bench/run.sh --compare a.jsonl[,a2.jsonl...] b.jsonl[,b2.jsonl...]
//
// A run generates the workload's design from the seed, writes it to a
// file, and runs the workload in a child process (a re-exec of this
// binary) so that the child's peak RSS is the workload's alone. The last
// line of standard output is one JSON object: correct, attempted, failed
// and the metrics, end-to-end ones with --trace 0 and per-layer ones with
// --trace 1.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fastcppr/gen"
	"fastcppr/tau"
)

// runDeadline bounds one workload run, child included, so the command
// exits well inside three minutes even when something hangs.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(mainCode(os.Args[1:]))
}

func mainCode(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated designs and operation streams")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload")
	traceOn := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	out := fs.String("out", "", "append each run's record, stamped, to this JSON-lines file")
	compareA := fs.String("compare", "", "compare run records: --compare A.jsonl[,A2.jsonl...] B.jsonl[,B2.jsonl...]")
	child := fs.String("child", "", "internal: run the workload in this process on this design file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareA != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: --compare needs two comma-separated lists of run files")
			return 2
		}
		return compare(os.Stdout, strings.Split(*compareA, ","), strings.Split(fs.Arg(0), ","))
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if wl := findWorkload(*name); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceOn == 1,
		// A process's first few set-ups run up to half again slower than
		// its later ones; with nine, the median lands past them.
		setupReps: 9,
		probeReps: 5,
		serveWarm: 2 * time.Second,
		httpProbe: 2 * time.Second,
	}
	if *child != "" {
		cfg.wl, cfg.design = wls[0], *child
		return runChild(cfg)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = checkBenchmarkFile(raw)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	code := 0
	for _, wl := range wls {
		cfg.wl = wl
		rec, err := runParent(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if err := emit(os.Stdout, rec, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// buildDir is where runs keep generated designs and spans: the directory
// bench/run.sh builds into, else .bench_build under the working directory.
func buildDir() string {
	if d := os.Getenv("BENCH_BUILD_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// spansPath is where a traced run writes its spans.
func spansPath(workload string, seed int64) string {
	return filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// stamp identifies the code and host a record was measured on.
type stamp struct {
	Revision   string `json:"revision"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	return stamp{
		Revision:   revision(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Seed:       seed,
	}
}

// revision is the checkout's git revision, with +dirty when the tree has
// changes, or "unknown" outside a git checkout. git is confined to the
// working directory so it never reports an enclosing repository.
func revision() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	if st, err := git("status", "--porcelain", "--untracked-files=no"); err != nil || st != "" {
		rev += "+dirty"
	}
	return rev
}

// record is one workload run as --out stores it and --compare reads it.
type record struct {
	Stamp      stamp   `json:"stamp"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Correct    bool    `json:"correct"`
	GenerateMs float64 `json:"gen_generate_ms"`
	childResult
}

// childResult is what the child reports to its parent on its last line
// of output: a failed operation is counted here, not in its exit code.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runParent prepares the workload's input, runs the child on it and
// completes its record with the child's peak RSS.
func runParent(cfg config) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	wl := cfg.wl
	rec := &record{
		Stamp:    newStamp(cfg.seed),
		Workload: wl.name,
		Trace:    cfg.trace,
		Seconds:  cfg.seconds.Seconds(),
	}

	spec, err := gen.PresetSpec("leon2", wl.scale)
	if err != nil {
		return nil, err
	}
	spec.Seed = cfg.seed
	start := time.Now()
	d, err := gen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rec.GenerateMs = ms(time.Since(start))
	workRoot := filepath.Join(buildDir(), "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	design := filepath.Join(work, "design.tau")
	if err := tau.WriteFile(design, d); err != nil {
		return nil, fmt.Errorf("write design: %w", err)
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", design, "--workload", wl.name,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64),
		"--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// The child must not outlive the benchmark, even if the parent is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	if rec.childResult, err = lastJSON[childResult](stdout.Bytes()); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	if !cfg.trace {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("child resource usage unavailable")
		}
		// Linux reports ru_maxrss in KiB.
		rec.Metrics["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6
	}
	err = completeMetrics(rec)
	if err != nil {
		rec.Errors = append(rec.Errors, err.Error())
	}
	rec.Correct = rec.Failed == 0 && err == nil
	return rec, nil
}

// completeMetrics reports a declared metric the record lacks or holds as
// a non-finite number.
func completeMetrics(rec *record) error {
	for _, m := range declared(rec.Trace) {
		v, ok := rec.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", m.Name)
		}
	}
	return nil
}

// declared is the metric list a run reports.
func declared(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// emit prints the record's metrics one per line, then the JSON result
// line, and appends the record to the JSON-lines file out, if set.
func emit(w io.Writer, rec *record, out string) error {
	fmt.Fprintf(w, "%s stamp revision=%s nproc=%d gomaxprocs=%d go=%s %s/%s seed=%d\n", rec.Workload,
		rec.Stamp.Revision, rec.Stamp.NProc, rec.Stamp.GOMAXPROCS, rec.Stamp.GoVersion, rec.Stamp.OS, rec.Stamp.Arch, rec.Stamp.Seed)
	fmt.Fprintf(w, "%s gen.generate_ms %.3f ms\n", rec.Workload, rec.GenerateMs)
	fmt.Fprintf(w, "%s samples %d count\n", rec.Workload, rec.Samples)
	fmt.Fprintf(w, "%s error_rate %g ratio\n", rec.Workload, ratio(float64(rec.Failed), float64(rec.Attempted)))
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "%s error %s\n", rec.Workload, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range declared(rec.Trace) {
		v, ok := rec.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if out == "" {
		return nil
	}
	f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastJSON decodes the last non-empty line of out.
func lastJSON[T any](out []byte) (T, error) {
	var v T
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if last == "" {
		return v, errors.New("no output")
	}
	return v, json.Unmarshal([]byte(last), &v)
}

// runChild runs the workload in this process and prints its result as
// one JSON line.
func runChild(cfg config) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline-10*time.Second)
	defer cancel()
	line, err := json.Marshal(execute(ctx, cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
