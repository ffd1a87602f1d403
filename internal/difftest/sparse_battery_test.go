package difftest

import (
	"testing"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/model"
)

// TestBatterySparseVsDenseKernels proves the tentpole exactness claim at
// the public API level: on down-scaled versions of every paper preset,
// with jittered MCMM corners, the sparse frontier kernel and the dense
// reference kernel produce byte-identical JSON reports for every mode,
// k, and corner selection.
func TestBatterySparseVsDenseKernels(t *testing.T) {
	names := gen.PresetNames()
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		spec, err := gen.PresetSpec(name, 0.004)
		if err != nil {
			t.Fatal(err)
		}
		d := gen.MustGenerate(spec)
		d = WithJitteredCorners(t, d, 2, 400+int64(len(name)))
		timer := cppr.NewTimer(d)
		for c := model.Corner(0); int(c) < d.NumCorners(); c++ {
			for _, mode := range model.Modes {
				for _, k := range []int{1, 10} {
					CheckKernelsByteIdentical(t, timer, d, cppr.Query{
						K: k, Mode: mode, Corners: cppr.CornerBit(c),
					})
				}
			}
		}
		// Multi-corner merged report: worst-corner selection must also be
		// kernel-independent.
		for _, mode := range model.Modes {
			CheckKernelsByteIdentical(t, timer, d, cppr.Query{
				K: 10, Mode: mode, Corners: cppr.CornerAll,
			})
		}
	}
}

// TestBatterySparseVsDenseMediumSeeds widens the net with seeded medium
// random designs (different topology generator settings than the
// presets) and the PO and multi-corner query variants.
func TestBatterySparseVsDenseMediumSeeds(t *testing.T) {
	for _, seed := range []int64{310, 311} {
		d := gen.MustGenerate(gen.Medium(seed))
		d = WithJitteredCorners(t, d, 3, seed)
		timer := cppr.NewTimer(d)
		for _, mode := range model.Modes {
			CheckKernelsByteIdentical(t, timer, d, cppr.Query{K: 25, Mode: mode})
			CheckKernelsByteIdentical(t, timer, d, cppr.Query{K: 25, Mode: mode, IncludePOs: true})
			CheckKernelsByteIdentical(t, timer, d, cppr.Query{K: 25, Mode: mode, Corners: cppr.CornerAll})
		}
	}
}
