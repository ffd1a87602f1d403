package core

import (
	"sort"
	"testing"

	"fastcppr/gen"
	"fastcppr/internal/baseline"
	"fastcppr/internal/lca"
	"fastcppr/model"
)

// These tests check the lemmas behind the paper's main correctness
// theorem (§III-F) directly on randomized designs, using the brute-force
// path enumeration as ground truth:
//
//   L1 (coverage at level d): every global top-k path p with
//      lauFF != capFF and depth(LCA) = d appears in the top-k candidate
//      set at level d ranked by slack(p, d).
//   L2 (self-loop coverage): every global top-k self-loop path appears
//      in the top-k of Definition 5's ranking.
//   L3 (d-PR slack dominance): slack(p, d) >= slack_CPPR(p) for every
//      d <= depth(LCA(p)), with equality at d = depth(LCA(p)).
//   L4 (deviation-cost sign): implicitly asserted by panics in the
//      engine; exercised by every top-k run.

// enumerate returns all paths of d for the mode, decorated and sorted by
// post-CPPR slack.
func enumerate(t *testing.T, d *model.Design, mode model.Mode) []model.Path {
	t.Helper()
	all := baseline.AllPaths(d, mode)
	baseline.SortPaths(all)
	return all
}

// slackAtLevel computes Definition 3's slack(p, dep) from first
// principles.
func slackAtLevel(tr *lca.Tree, d *model.Design, p *model.Path, dep int) model.Time {
	lau := d.FFs[p.LaunchFF].Clock
	for int(d.ClockDepth[lau]) > dep {
		lau = d.ClockParent[lau]
	}
	return p.PreSlack + tr.Credit(lau)
}

func TestLemmaLevelCoverage(t *testing.T) {
	const k = 8
	for seed := int64(0); seed < 8; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		tr := lca.New(d)
		for _, mode := range model.Modes {
			all := enumerate(t, d, mode)
			globalTop := all
			if len(globalTop) > k {
				globalTop = globalTop[:k]
			}
			for dep := 0; dep < d.Depth; dep++ {
				// Candidate set at level dep (Definition 4).
				var cands []model.Path
				for _, p := range all {
					if p.LaunchFF == model.NoFF || p.SelfLoop() {
						continue
					}
					if p.LCADepth <= dep &&
						tr.Depth(d.FFs[p.LaunchFF].Clock) > dep &&
						tr.Depth(d.FFs[p.CaptureFF].Clock) > dep {
						cands = append(cands, p)
					}
				}
				// Rank by slack(p, dep).
				sort.SliceStable(cands, func(i, j int) bool {
					return slackAtLevel(tr, d, &cands[i], dep) < slackAtLevel(tr, d, &cands[j], dep)
				})
				kth := len(cands)
				if kth > k {
					kth = k
				}
				// L1: every global-top-k path with LCA depth == dep must
				// rank within the level's top-k.
				for _, g := range globalTop {
					if g.LCADepth != dep || g.SelfLoop() || g.LaunchFF == model.NoFF {
						continue
					}
					gs := slackAtLevel(tr, d, &g, dep)
					// Count candidates strictly better than g.
					better := 0
					for _, c := range cands {
						if slackAtLevel(tr, d, &c, dep) < gs {
							better++
						}
					}
					if better >= k {
						t.Fatalf("seed %d %v level %d: global top-k path (slack %v) ranked %d-th at its level",
							seed, mode, dep, g.Slack, better+1)
					}
					// L3 equality at d = depth(LCA).
					if gs != g.Slack {
						t.Fatalf("slack(p, depth(LCA)) = %v != post-CPPR %v", gs, g.Slack)
					}
				}
			}
		}
	}
}

func TestLemmaSelfLoopCoverage(t *testing.T) {
	const k = 8
	for seed := int64(0); seed < 8; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		tr := lca.New(d)
		for _, mode := range model.Modes {
			all := enumerate(t, d, mode)
			globalTop := all
			if len(globalTop) > k {
				globalTop = globalTop[:k]
			}
			// Definition 5 ranking over ALL FF-launched paths.
			rank5 := func(p *model.Path) model.Time {
				lau := d.FFs[p.LaunchFF].Clock
				return p.PreSlack + tr.Credit(lau)
			}
			for _, g := range globalTop {
				if !g.SelfLoop() {
					continue
				}
				gs := rank5(&g)
				// L3 for self-loops: ranking key equals the post-CPPR
				// slack (LCA of (u,u) is u).
				if gs != g.Slack {
					t.Fatalf("self-loop ranking key %v != post slack %v", gs, g.Slack)
				}
				better := 0
				for i := range all {
					p := &all[i]
					if p.LaunchFF == model.NoFF {
						continue
					}
					if rank5(p) < gs {
						better++
					}
				}
				// L2: fewer than k paths may outrank a global top-k
				// self-loop in Definition 5's order.
				if better >= k {
					t.Fatalf("seed %d %v: self-loop in global top-%d ranked %d-th in Definition 5 order",
						seed, mode, k, better+1)
				}
			}
		}
	}
}

func TestLemmaDPRSlackDominance(t *testing.T) {
	// L3: slack(p, d) is non-increasing as d decreases below depth(LCA)
	// ... precisely: for d <= depth(LCA), slack(p,d) <= slack_CPPR(p),
	// monotone non-decreasing in d, with slack(p,0) = pre-CPPR slack +
	// credit(root) = pre-CPPR slack.
	for seed := int64(0); seed < 6; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		tr := lca.New(d)
		all := enumerate(t, d, model.Setup)
		for i := range all {
			p := &all[i]
			if p.LaunchFF == model.NoFF {
				continue
			}
			if got := slackAtLevel(tr, d, p, 0); got != p.PreSlack {
				t.Fatalf("slack(p,0) = %v, want pre-CPPR %v", got, p.PreSlack)
			}
			prev := model.MinTime
			for dep := 0; dep <= p.LCADepth; dep++ {
				s := slackAtLevel(tr, d, p, dep)
				if s < prev {
					t.Fatalf("slack(p,d) decreased at d=%d", dep)
				}
				if s > p.Slack {
					t.Fatalf("slack(p,%d) = %v exceeds post-CPPR slack %v for LCA depth %d",
						dep, s, p.Slack, p.LCADepth)
				}
				prev = s
			}
			if slackAtLevel(tr, d, p, p.LCADepth) != p.Slack {
				t.Fatal("slack(p, depth(LCA)) != post-CPPR slack")
			}
		}
	}
}

// TestLemmaGroupingEquivalence checks Figure 3's claim: the grouping
// predicate f_{d+1}(lau) != f_{d+1}(cap) is equivalent to
// (lau != cap && depth(LCA) <= d) for FF clock pins deeper than d.
func TestLemmaGroupingEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		tr := lca.New(d)
		var lt lca.LevelTables
		cks := make([]model.PinID, 0, d.NumFFs())
		for _, ff := range d.FFs {
			cks = append(cks, ff.Clock)
		}
		for dep := 0; dep < d.Depth; dep++ {
			tr.FillLevel(dep, &lt)
			for _, u := range cks {
				for _, v := range cks {
					if tr.Depth(u) <= dep || tr.Depth(v) <= dep {
						continue
					}
					gu, gv := tr.GroupOf(&lt, u), tr.GroupOf(&lt, v)
					want := u != v && tr.LCADepth(u, v) <= dep
					if got := gu != gv; got != want {
						t.Fatalf("seed %d level %d: grouping(%s,%s) = %v, want %v",
							seed, dep, d.PinName(u), d.PinName(v), got, want)
					}
				}
			}
		}
	}
}
