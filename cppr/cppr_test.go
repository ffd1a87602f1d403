package cppr

import (
	"context"
	"sort"
	"strings"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

func sortedSlacks(paths []model.Path) []model.Time {
	s := make([]model.Time, len(paths))
	for i := range paths {
		s[i] = paths[i].Slack
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestAllAlgorithmsAgreeThroughFacade(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(5))
	timer := NewTimer(d)
	for _, mode := range model.Modes {
		var ref []model.Time
		for _, algo := range append(Algorithms, AlgoBruteForce) {
			rep, err := timer.Run(context.Background(), Query{K: 20, Mode: mode, Algorithm: algo, Threads: 2})
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			got := sortedSlacks(rep.Paths)
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("%v %v: %d paths, want %d", algo, mode, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%v %v: slack %d = %v, want %v", algo, mode, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestReportMetadata(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(1))
	rep, err := NewTimer(d).Run(context.Background(), Query{K: 5, Mode: model.Setup})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != AlgoLCA {
		t.Errorf("Algorithm = %v", rep.Algorithm)
	}
	// The plan prunes LCA-inactive levels, so Jobs is at most depth+2
	// (every level plus self-loop and PI) and at least the ungrouped
	// jobs alone.
	if rep.Stats.Jobs < 2 || rep.Stats.Jobs > d.Depth+2 {
		t.Errorf("Stats.Jobs = %d, want in [2, %d]", rep.Stats.Jobs, d.Depth+2)
	}
	if w, ok := rep.WorstSlack(); !ok || w != rep.Paths[0].Slack {
		t.Errorf("WorstSlack = %v/%v", w, ok)
	}
	if _, ok := (&Report{}).WorstSlack(); ok {
		t.Error("empty report has a worst slack")
	}
}

func TestNegativeK(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(1))
	if _, err := NewTimer(d).Run(context.Background(), Query{K: -1}); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"lca": AlgoLCA, "ours": AlgoLCA, "": AlgoLCA,
		"pairwise": AlgoPairwise, "opentimer": AlgoPairwise,
		"blockwise": AlgoBlockwise, "happytimer": AlgoBlockwise,
		"bnb": AlgoBranchAndBound, "itimerc": AlgoBranchAndBound,
		"brute": AlgoBruteForce,
	}
	for s, want := range cases {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v/%v, want %v", s, got, err, want)
		}
	}
	for _, name := range []string{"nope", "rerank"} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("unknown algorithm %q accepted", name)
		}
	}
	for _, a := range append(Algorithms, AlgoBruteForce) {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("round trip of %v failed", a)
		}
	}
	if !strings.HasPrefix(Algorithm(42).String(), "Algorithm(") {
		t.Error("unknown algorithm String")
	}
}

func TestPreCPPRSlacks(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(9))
	timer := NewTimer(d)
	pre := timer.PreCPPRSlacks(model.Setup)
	if len(pre) != d.NumFFs() {
		t.Fatalf("%d endpoint slacks, want %d", len(pre), d.NumFFs())
	}
	// The worst pre-CPPR endpoint slack must be <= the worst post-CPPR
	// path slack (credits never make things worse).
	rep, err := timer.Run(context.Background(), Query{K: 1, Mode: model.Setup})
	if err != nil {
		t.Fatal(err)
	}
	worstPre := model.MaxTime
	for _, s := range pre {
		if s.Valid && s.Slack < worstPre {
			worstPre = s.Slack
		}
	}
	if w, ok := rep.WorstSlack(); ok && worstPre > w {
		t.Errorf("worst pre %v > worst post %v", worstPre, w)
	}
}

func TestSetBudgets(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(2))
	timer := NewTimer(d)
	timer.SetBudgets(5, 2)
	rep, err := timer.Run(context.Background(), Query{K: 10, Mode: model.Setup, Algorithm: AlgoBlockwise})
	if err != nil {
		t.Errorf("blockwise budget exhaustion must degrade, not error: %v", err)
	} else if !rep.Degraded {
		t.Error("blockwise under tiny budget should set Degraded")
	}
	rep, err = timer.Run(context.Background(), Query{K: 10, Mode: model.Setup, Algorithm: AlgoBranchAndBound})
	if err != nil {
		t.Errorf("bnb budget exhaustion must degrade, not error: %v", err)
	} else if !rep.Degraded {
		t.Error("bnb under tiny budget should set Degraded")
	}
	timer.SetBudgets(0, 0) // no change
	if _, err := timer.Run(context.Background(), Query{K: 1, Mode: model.Setup, Algorithm: AlgoLCA}); err != nil {
		t.Errorf("lca should be unaffected by budgets: %v", err)
	}
}
