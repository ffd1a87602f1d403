package core

import (
	"context"
	"testing"

	"fastcppr/gen"
	"fastcppr/internal/baseline"
	"fastcppr/model"
)

// multiDomainSpec returns a small multi-domain oracle spec.
func multiDomainSpec(seed int64, domains int) gen.Spec {
	spec := gen.SmallOracle(seed)
	spec.NumDomains = domains
	spec.NumFFs = 10 + int(seed%4)
	return spec
}

func TestMultiDomainOracle(t *testing.T) {
	for _, domains := range []int{2, 3} {
		for seed := int64(0); seed < 6; seed++ {
			d := gen.MustGenerate(multiDomainSpec(seed, domains))
			if len(d.Roots) != domains {
				t.Fatalf("generated %d roots, want %d", len(d.Roots), domains)
			}
			e := NewEngine(d)
			if e.Tree().NumDomains() != domains {
				t.Fatalf("tree sees %d domains", e.Tree().NumDomains())
			}
			for _, mode := range model.Modes {
				brute := baseline.AllPaths(d, mode)
				baseline.SortPaths(brute)
				for _, k := range []int{1, 5, 25, len(brute) + 5} {
					got := mustTopPaths(t, e, Options{K: k, Mode: mode, Threads: 2})
					validatePaths(t, d, mode, got.Paths)
					want := brute
					if len(want) > k {
						want = want[:k]
					}
					if !equalSlacks(slacksOf(got.Paths), baseline.Slacks(want)) {
						t.Fatalf("domains=%d seed=%d %v k=%d: slacks differ\ngot:  %v\nwant: %v",
							domains, seed, mode, k, slacksOf(got.Paths), baseline.Slacks(want))
					}
				}
			}
		}
	}
}

func TestMultiDomainCrossPathsHaveNoCredit(t *testing.T) {
	d := gen.MustGenerate(multiDomainSpec(3, 2))
	e := NewEngine(d)
	res := mustTopPaths(t, e, Options{K: 10_000, Mode: model.Setup})
	crossSeen := 0
	for _, p := range res.Paths {
		if p.LaunchFF == model.NoFF {
			continue
		}
		lau := d.FFs[p.LaunchFF].Clock
		cap := d.FFs[p.CaptureFF].Clock
		if e.Tree().SameDomain(lau, cap) {
			continue
		}
		crossSeen++
		if p.Credit != 0 || p.LCADepth != -1 {
			t.Fatalf("cross-domain path has credit %v depth %d", p.Credit, p.LCADepth)
		}
	}
	if crossSeen == 0 {
		t.Skip("fixture produced no cross-domain paths (window too narrow)")
	}
}

func TestMultiDomainBaselinesAgree(t *testing.T) {
	spec := gen.Medium(44)
	spec.NumDomains = 3
	d := gen.MustGenerate(spec)
	e := NewEngine(d)
	pw := baseline.NewPairwise(d, e.Tree())
	bb := baseline.NewBranchAndBound(d, e.Tree())
	bw := baseline.NewBlockwise(d, e.Tree())
	for _, mode := range model.Modes {
		k := 150
		ours := mustTopPaths(t, e, Options{K: k, Mode: mode, Threads: 4})
		validatePaths(t, d, mode, ours.Paths)
		pws, err := pw.TopPaths(context.Background(), mode, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlacks(slacksOf(ours.Paths), slacksOf(pws)) {
			t.Fatalf("%v: core vs pairwise differ on multi-domain design", mode)
		}
		bbs, _, err := bb.TopPaths(context.Background(), mode, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlacks(slacksOf(ours.Paths), slacksOf(bbs)) {
			t.Fatalf("%v: core vs bnb differ on multi-domain design", mode)
		}
		bws, _, err := bw.TopPaths(context.Background(), mode, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSlacks(slacksOf(ours.Paths), slacksOf(bws)) {
			t.Fatalf("%v: core vs blockwise differ on multi-domain design", mode)
		}
	}
}

func TestSingleDomainHasNoCrossJob(t *testing.T) {
	// The sparse plan runs one job per LCA-active level plus self-loop
	// and PI; the cross-domain job appears only with several domains.
	activeLevels := func(e *Engine, depth int) int {
		n := 0
		for d := 0; d < depth; d++ {
			if e.tree.LevelActive(d) {
				n++
			}
		}
		return n
	}
	d := gen.MustGenerate(gen.SmallOracle(1))
	e := NewEngine(d)
	res := mustTopPaths(t, e, Options{K: 5, Mode: model.Setup})
	if want := activeLevels(e, d.Depth) + 2; res.Stats.Jobs != want {
		t.Fatalf("single-domain Jobs = %d, want %d", res.Stats.Jobs, want)
	}
	spec := multiDomainSpec(1, 2)
	d2 := gen.MustGenerate(spec)
	e2 := NewEngine(d2)
	res2 := mustTopPaths(t, e2, Options{K: 5, Mode: model.Setup})
	if want := activeLevels(e2, d2.Depth) + 3; res2.Stats.Jobs != want {
		t.Fatalf("multi-domain Jobs = %d, want %d", res2.Stats.Jobs, want)
	}
}
