package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"fastcppr/gen"
	"fastcppr/internal/baseline"
	"fastcppr/model"
)

// mustTopPaths runs a top-k query under a background context, which
// can only fail on an engine invariant violation — fatal in tests.
func mustTopPaths(tb testing.TB, e *Engine, opts Options) Result {
	tb.Helper()
	res, err := e.TopPaths(context.Background(), opts)
	if err != nil {
		tb.Fatalf("TopPaths: %v", err)
	}
	return res
}

// mustEndpointSlacks is mustTopPaths for the endpoint-slack sweep.
func mustEndpointSlacks(tb testing.TB, e *Engine, opts Options) []EndpointCPPRSlack {
	tb.Helper()
	out, err := e.EndpointSlacksCPPR(context.Background(), opts)
	if err != nil {
		tb.Fatalf("EndpointSlacksCPPR: %v", err)
	}
	return out
}

// slacksOf returns the sorted slack list of a result.
func slacksOf(paths []model.Path) []model.Time {
	s := baseline.Slacks(paths)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func equalSlacks(a, b []model.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validatePaths re-derives every reported path from first principles and
// checks the full slack decomposition, ordering, and structure.
func validatePaths(t *testing.T, d *model.Design, mode model.Mode, paths []model.Path) {
	t.Helper()
	var prev model.Time
	for i, p := range paths {
		if p.Mode != mode {
			t.Fatalf("path %d has mode %v, want %v", i, p.Mode, mode)
		}
		if i > 0 && p.Slack < prev {
			t.Fatalf("paths not sorted: %v after %v", p.Slack, prev)
		}
		prev = p.Slack
		ref, err := d.RecomputePath(mode, p.Pins)
		if err != nil {
			t.Fatalf("path %d invalid: %v\npins: %v", i, err, p.Pins)
		}
		if ref.Slack != p.Slack {
			t.Fatalf("path %d slack %v, recomputed %v", i, p.Slack, ref.Slack)
		}
		if ref.PreSlack != p.PreSlack || ref.Credit != p.Credit {
			t.Fatalf("path %d decomposition (%v,%v), recomputed (%v,%v)",
				i, p.PreSlack, p.Credit, ref.PreSlack, ref.Credit)
		}
		if ref.LCADepth != p.LCADepth || ref.LaunchFF != p.LaunchFF || ref.CaptureFF != p.CaptureFF {
			t.Fatalf("path %d identity mismatch: got depth=%d lau=%d cap=%d, want %d/%d/%d",
				i, p.LCADepth, p.LaunchFF, p.CaptureFF, ref.LCADepth, ref.LaunchFF, ref.CaptureFF)
		}
	}
}

func TestTopPathsMatchesBruteForceOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		e := NewEngine(d)
		for _, mode := range model.Modes {
			brute := baseline.AllPaths(d, mode)
			baseline.SortPaths(brute)
			for _, k := range []int{1, 3, 10, 50, len(brute) + 10} {
				got := mustTopPaths(t, e, Options{K: k, Mode: mode, Threads: 2})
				validatePaths(t, d, mode, got.Paths)
				want := brute
				if len(want) > k {
					want = want[:k]
				}
				if !equalSlacks(slacksOf(got.Paths), baseline.Slacks(want)) {
					t.Fatalf("seed %d mode %v k %d: slacks differ\ngot:  %v\nwant: %v",
						seed, mode, k, slacksOf(got.Paths), baseline.Slacks(want))
				}
			}
		}
	}
}

func TestTopPathsMediumOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("medium oracle is slow")
	}
	spec := gen.SmallOracle(99)
	spec.NumFFs = 20
	spec.CombPerLayer = 16
	spec.CombLayers = 3
	d := gen.MustGenerate(spec)
	e := NewEngine(d)
	for _, mode := range model.Modes {
		brute := baseline.BruteForce(d, mode, 200)
		got := mustTopPaths(t, e, Options{K: 200, Mode: mode})
		validatePaths(t, d, mode, got.Paths)
		if !equalSlacks(slacksOf(got.Paths), baseline.Slacks(brute)) {
			t.Fatalf("mode %v: slacks differ", mode)
		}
	}
}

func TestThreadCountDeterminism(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(21))
	e := NewEngine(d)
	for _, mode := range model.Modes {
		ref := mustTopPaths(t, e, Options{K: 100, Mode: mode, Threads: 1})
		for _, threads := range []int{2, 4, 8} {
			got := mustTopPaths(t, e, Options{K: 100, Mode: mode, Threads: threads})
			if len(got.Paths) != len(ref.Paths) {
				t.Fatalf("threads %d: %d paths, want %d", threads, len(got.Paths), len(ref.Paths))
			}
			for i := range ref.Paths {
				if got.Paths[i].Slack != ref.Paths[i].Slack {
					t.Fatalf("threads %d: path %d slack %v, want %v",
						threads, i, got.Paths[i].Slack, ref.Paths[i].Slack)
				}
				if fmt.Sprint(got.Paths[i].Pins) != fmt.Sprint(ref.Paths[i].Pins) {
					t.Fatalf("threads %d: path %d pins differ", threads, i)
				}
			}
		}
	}
}

func TestTopPathsValidOnMediumDesign(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(33))
	e := NewEngine(d)
	for _, mode := range model.Modes {
		res := mustTopPaths(t, e, Options{K: 500, Mode: mode, Threads: 4})
		if len(res.Paths) == 0 {
			t.Fatalf("mode %v: no paths", mode)
		}
		validatePaths(t, d, mode, res.Paths)
		if res.Stats.Jobs < 2 || res.Stats.Jobs > d.Depth+2 {
			t.Errorf("Jobs = %d, want in [2, %d]", res.Stats.Jobs, d.Depth+2)
		}
		if res.Stats.Candidates < res.Stats.Kept {
			t.Errorf("Candidates %d < Kept %d", res.Stats.Candidates, res.Stats.Kept)
		}
	}
}

func TestKZeroAndNegative(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(1))
	e := NewEngine(d)
	if got := mustTopPaths(t, e, Options{K: 0, Mode: model.Setup}); len(got.Paths) != 0 {
		t.Error("K=0 returned paths")
	}
	if got := mustTopPaths(t, e, Options{K: -5, Mode: model.Setup}); len(got.Paths) != 0 {
		t.Error("K<0 returned paths")
	}
}

func TestNoFFDesign(t *testing.T) {
	b := model.NewBuilder("noff", model.Ns(1))
	clk := b.AddClockRoot("clk")
	cb := b.AddClockBuf("b")
	b.AddArc(clk, cb, model.Window{Early: 1, Late: 2})
	d := b.MustBuild()
	e := NewEngine(d)
	if got := mustTopPaths(t, e, Options{K: 10, Mode: model.Setup}); len(got.Paths) != 0 {
		t.Error("no-FF design returned paths")
	}
}

// TestFigure1Reordering reproduces the paper's Figure 1: before CPPR,
// path 2 (large shared clock segment) looks more critical than path 1;
// after CPPR the order flips because pessimism 2 exceeds pessimism 1.
func TestFigure1Reordering(t *testing.T) {
	b := model.NewBuilder("fig1", model.Ns(10))
	clk := b.AddClockRoot("clk")
	// A long, skewed common trunk feeding FF3/FF4 (data path 2);
	// a short trunk feeding FF1/FF2 (data path 1).
	t1 := b.AddClockBuf("t1")
	t2 := b.AddClockBuf("t2")
	b.AddArc(clk, t1, model.Window{Early: 10, Late: 15}) // pessimism 1 trunk: 5
	b.AddArc(clk, t2, model.Window{Early: 10, Late: 90}) // pessimism 2 trunk: 80
	ff1 := b.AddFF("ff1", 0, 0, model.Window{Early: 10, Late: 10})
	ff2 := b.AddFF("ff2", 0, 0, model.Window{Early: 10, Late: 10})
	ff3 := b.AddFF("ff3", 0, 0, model.Window{Early: 10, Late: 10})
	ff4 := b.AddFF("ff4", 0, 0, model.Window{Early: 10, Late: 10})
	b.AddArc(t1, ff1.Clock, model.Window{Early: 5, Late: 5})
	b.AddArc(t1, ff2.Clock, model.Window{Early: 5, Late: 5})
	b.AddArc(t2, ff3.Clock, model.Window{Early: 5, Late: 5})
	b.AddArc(t2, ff4.Clock, model.Window{Early: 5, Late: 5})
	g1 := b.AddComb("g1")
	g2 := b.AddComb("g2")
	// Path 2 (ff3 -> ff4) is worse pre-CPPR than path 1 only because of
	// trunk skew; its data delay is smaller, so removing pessimism flips
	// the order.
	b.AddArc(ff1.Q, g1, model.Window{Early: 100, Late: 200})
	b.AddArc(g1, ff2.D, model.Window{Early: 10, Late: 10})
	b.AddArc(ff3.Q, g2, model.Window{Early: 100, Late: 160})
	b.AddArc(g2, ff4.D, model.Window{Early: 10, Late: 10})
	d := b.MustBuild()
	e := NewEngine(d)

	res := mustTopPaths(t, e, Options{K: 2, Mode: model.Setup})
	if len(res.Paths) != 2 {
		t.Fatalf("got %d paths", len(res.Paths))
	}
	first := res.Paths[0]
	// Pre-CPPR, the ff3->ff4 path is worse (worst would be path 2);
	// post-CPPR its 80ps credit makes path 1 the most critical.
	if first.PreSlack > res.Paths[1].PreSlack {
		// ordering by post-CPPR slack must have flipped the pair
		if first.CaptureFF != ff2.ID {
			t.Fatalf("expected path into ff2 first, got capture FF %d", first.CaptureFF)
		}
	} else {
		t.Fatalf("fixture did not create the reordering scenario: pre %v vs %v",
			first.PreSlack, res.Paths[1].PreSlack)
	}
	if first.Credit != 5 {
		t.Errorf("path 1 credit = %v, want 5", first.Credit)
	}
	if res.Paths[1].Credit != 80 {
		t.Errorf("path 2 credit = %v, want 80", res.Paths[1].Credit)
	}
}

// TestSelfLoopCandidates verifies Definition 5 handling on a design whose
// most critical path is a self-loop.
func TestSelfLoopCandidates(t *testing.T) {
	b := model.NewBuilder("selfloop", model.Ns(10))
	clk := b.AddClockRoot("clk")
	cb := b.AddClockBuf("cb")
	b.AddArc(clk, cb, model.Window{Early: 10, Late: 60}) // credit at cb: 50
	ff1 := b.AddFF("ff1", 0, 0, model.Window{Early: 10, Late: 10})
	ff2 := b.AddFF("ff2", 0, 0, model.Window{Early: 10, Late: 10})
	b.AddArc(cb, ff1.Clock, model.Window{Early: 5, Late: 25}) // credit at ff1/CK: 70
	b.AddArc(cb, ff2.Clock, model.Window{Early: 5, Late: 25})
	g := b.AddComb("g")
	b.AddArc(ff1.Q, g, model.Window{Early: 50, Late: 400})
	b.AddArc(g, ff1.D, model.Window{Early: 10, Late: 10}) // self loop
	b.AddArc(g, ff2.D, model.Window{Early: 10, Late: 10}) // cross pair
	d := b.MustBuild()
	e := NewEngine(d)

	for _, mode := range model.Modes {
		got := mustTopPaths(t, e, Options{K: 10, Mode: mode})
		brute := baseline.BruteForce(d, mode, 10)
		if !equalSlacks(slacksOf(got.Paths), baseline.Slacks(brute)) {
			t.Fatalf("mode %v: got %v want %v", mode, slacksOf(got.Paths), baseline.Slacks(brute))
		}
		validatePaths(t, d, mode, got.Paths)
		// One of the reported paths must be the self-loop with full
		// credit 70.
		foundSelf := false
		for _, p := range got.Paths {
			if p.SelfLoop() {
				foundSelf = true
				if p.Credit != 70 {
					t.Errorf("self-loop credit = %v, want 70", p.Credit)
				}
			}
		}
		if !foundSelf {
			t.Errorf("mode %v: no self-loop path reported", mode)
		}
	}
}

// TestPICandidates verifies Definition 6 handling: PI-launched paths carry
// no credit and compete with FF-launched paths.
func TestPICandidates(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		spec := gen.SmallOracle(seed)
		spec.NumPIs = 5
		d := gen.MustGenerate(spec)
		e := NewEngine(d)
		got := mustTopPaths(t, e, Options{K: 25, Mode: model.Setup})
		validatePaths(t, d, model.Setup, got.Paths)
		for _, p := range got.Paths {
			if p.LaunchFF == model.NoFF {
				if p.Credit != 0 || p.LCADepth != -1 {
					t.Fatalf("PI path has credit %v depth %d", p.Credit, p.LCADepth)
				}
				if d.Pins[p.StartPin()].Kind != model.PI {
					t.Fatalf("PI path starts at %v", d.Pins[p.StartPin()].Kind)
				}
			}
		}
	}
}

func TestStatsReconstructedBounded(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(8))
	e := NewEngine(d)
	res := mustTopPaths(t, e, Options{K: 50, Mode: model.Setup, Threads: 1})
	// With one thread and ordered job execution, every acceptance is a
	// reconstruction; it must stay well below the total candidate count
	// and at or above the number of returned paths.
	if res.Stats.Reconstructed < len(res.Paths) {
		t.Errorf("Reconstructed %d < returned %d", res.Stats.Reconstructed, len(res.Paths))
	}
	if res.Stats.Reconstructed > res.Stats.Kept {
		t.Errorf("Reconstructed %d > Kept %d", res.Stats.Reconstructed, res.Stats.Kept)
	}
}

// TestGlobalBoundPruningIsResultNeutral verifies the pruning ablation:
// every cold-run bound — the live k-th best slack, the a-priori witness
// bound B0 and the sparse kernels' required-time bound — leaves reports
// byte-identical to DisableGlobalBound runs across k, modes, PO
// endpoints, false-path exclusions, FilterCapture, same_transition on a
// parity-mixed clock tree and partitioned kernels, and does strictly
// less work on a design where most levels contribute nothing. On leon2
// at k=1 the bounded run must also offer strictly fewer seeds, so
// bound-ordered seeding cannot silently stop cutting.
func TestGlobalBoundPruningIsResultNeutral(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(61))
	e := NewEngine(d)
	excl := Options{
		ExcludeLaunchFF:  make([]bool, len(d.FFs)),
		ExcludeCaptureFF: make([]bool, len(d.FFs)),
		ExcludeLaunchPin: map[model.PinID]bool{d.PIs[0]: true},
	}
	for i := range d.FFs {
		excl.ExcludeLaunchFF[i] = i%5 == 1
		excl.ExcludeCaptureFF[i] = i%7 == 3
	}
	ev := NewEngine(gen.MustGenerate(gen.DivergentClock(3)))
	spec, err := gen.PresetSpec("leon2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	big := NewEngine(gen.MustGenerate(spec))
	cases := []struct {
		name string
		e    *Engine
		opts Options
	}{
		{"plain", e, Options{}},
		{"pos", e, Options{IncludePOs: true}},
		{"false-paths", e, excl},
		{"filter", e, Options{FilterCapture: true, CaptureFF: 9}},
		{"same-transition", ev, Options{CRPR: model.CRPRSameTransition}},
		{"prop-threads", big, Options{PropThreads: 3}},
	}
	for _, c := range cases {
		for _, mode := range model.Modes {
			for _, k := range []int{1, 25, 300} {
				opts := c.opts
				opts.K, opts.Mode, opts.Threads = k, mode, 1
				with := mustTopPaths(t, c.e, opts)
				opts.DisableGlobalBound = true
				without := mustTopPaths(t, c.e, opts)
				equalPaths(t, fmt.Sprintf("%s %v k=%d", c.name, mode, k), with.Paths, without.Paths)
				if c.name == "plain" && k == 300 && with.Stats.Candidates >= without.Stats.Candidates {
					t.Errorf("mode %v: pruning did not reduce work (%d vs %d candidates)",
						mode, with.Stats.Candidates, without.Stats.Candidates)
				}
				if c.e == big && k == 1 && with.Stats.Seeded >= without.Stats.Seeded {
					t.Errorf("%s %v k=1: bounded run offered %d seeds, unbounded %d",
						c.name, mode, with.Stats.Seeded, without.Stats.Seeded)
				}
			}
		}
	}
}

// TestPriorBoundAboveTrueKth checks B0 against the brute-force oracle:
// whenever the witnesses yield one, it is at least the true k-th best
// post-CPPR slack, under both CRPR modes.
func TestPriorBoundAboveTrueKth(t *testing.T) {
	var specs []gen.Spec
	for seed := int64(0); seed < 6; seed++ {
		specs = append(specs, gen.SmallOracle(seed), gen.DivergentClock(seed))
	}
	for _, spec := range specs {
		d := gen.MustGenerate(spec)
		e := NewEngine(d)
		for _, mode := range model.Modes {
			for _, crpr := range []model.CRPRMode{model.CRPRSamePin, model.CRPRSameTransition} {
				brute, err := baseline.BruteForceCRPR(context.Background(), d, mode, crpr, 1<<30)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 5, 20, len(d.FFs)} {
					b0, ok := e.priorBound(&Options{K: k, Mode: mode, CRPR: crpr})
					if !ok {
						continue
					}
					if k > len(brute) {
						t.Fatalf("%s %v %v k=%d: B0 %v from more witnesses than the %d paths", spec.Name, mode, crpr, k, b0, len(brute))
					}
					if kth := brute[k-1].Slack; b0 < kth {
						t.Fatalf("%s %v %v k=%d: B0 %v below the true k-th slack %v", spec.Name, mode, crpr, k, b0, kth)
					}
				}
			}
		}
	}
}
