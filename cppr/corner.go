package cppr

import (
	"math/bits"

	"fastcppr/model"
)

// CornerMask selects the delay corners a query analyses: bit c selects
// corner c (model.Corner ids are dense, corner 0 is the base corner).
// The zero mask reads as "corner 0 only" — the single-corner fast path
// — so pre-MCMM queries keep their meaning unchanged.
type CornerMask uint64

// CornerAll selects every corner of the design the query runs against;
// it is clamped to the design's corner count during normalization.
const CornerAll CornerMask = ^CornerMask(0)

// CornerBit returns the mask selecting exactly corner c.
func CornerBit(c model.Corner) CornerMask { return CornerMask(1) << c }

// Has reports whether the mask selects corner c.
func (m CornerMask) Has(c model.Corner) bool { return m&CornerBit(c) != 0 }

// Count returns the number of selected corners.
func (m CornerMask) Count() int { return bits.OnesCount64(uint64(m)) }

// List expands the mask into an ascending list of corner ids.
func (m CornerMask) List() []model.Corner {
	out := make([]model.Corner, 0, m.Count())
	for v := uint64(m); v != 0; v &= v - 1 {
		out = append(out, model.Corner(bits.TrailingZeros64(v)))
	}
	return out
}

// single returns the selected corner when exactly one bit is set.
func (m CornerMask) single() (model.Corner, bool) {
	if m.Count() != 1 {
		return 0, false
	}
	return model.Corner(bits.TrailingZeros64(uint64(m))), true
}

// mergeCornerReports reduces per-corner reports of one query into the
// worst-corner merged report: the k most critical paths over all
// selected corners, each tagged with the corner it was computed at.
// Per-corner path lists are sorted ascending by post-CPPR slack, so a
// k-way merge of per-corner top-k prefixes is exact. Ties keep the
// lowest corner id, making the merge deterministic and independent of
// execution order. Engine counters are summed and Degraded is sticky;
// Elapsed is left for the caller (wall time for Run, aggregate compute
// for batch-served queries).
func mergeCornerReports(corners []model.Corner, reps []Report, k int) Report {
	out := Report{Algorithm: reps[0].Algorithm}
	remaining := 0
	for i := range reps {
		remaining += len(reps[i].Paths)
		out.Degraded = out.Degraded || reps[i].Degraded
		out.Stats.Add(reps[i].Stats)
	}
	if remaining < k {
		k = remaining
	}
	out.Paths = make([]model.Path, 0, k)
	out.PathCorners = make([]model.Corner, 0, k)
	idx := make([]int, len(reps))
	for len(out.Paths) < k {
		best := -1
		for i := range reps {
			if idx[i] >= len(reps[i].Paths) {
				continue
			}
			if best < 0 || reps[i].Paths[idx[i]].Slack < reps[best].Paths[idx[best]].Slack {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out.Paths = append(out.Paths, reps[best].Paths[idx[best]])
		out.PathCorners = append(out.PathCorners, corners[best])
		idx[best]++
	}
	if len(out.PathCorners) > 0 {
		out.Corner = out.PathCorners[0]
	} else if len(corners) > 0 {
		out.Corner = corners[0]
	}
	return out
}
