package cppr

import (
	"time"

	"fastcppr/internal/qerr"
	"fastcppr/model"
)

// CRPRSetting selects a query's pessimism-removal credit semantics.
// The zero value defers to the timer's SDC-installed default, so plain
// queries automatically follow set_crpr_mode.
type CRPRSetting int

const (
	// CRPRDefault resolves to the snapshot's default mode: same_pin
	// unless an applied SDC said "set_crpr_mode same_transition".
	CRPRDefault CRPRSetting = iota
	// CRPRSamePin credits the full common-path window regardless of
	// clock-edge sense — the classic (most generous) CRPR.
	CRPRSamePin
	// CRPRSameTransition credits only launch/capture pairs whose clock
	// edges traverse the shared path with the same transition sense;
	// pairs split by an inverting clock cell get zero credit.
	CRPRSameTransition
)

// mode maps a resolved (non-default) setting to the model-layer mode.
func (c CRPRSetting) mode() model.CRPRMode {
	if c == CRPRSameTransition {
		return model.CRPRSameTransition
	}
	return model.CRPRSamePin
}

// crprSettingOf lifts a model-layer mode into the query setting.
func crprSettingOf(m model.CRPRMode) CRPRSetting {
	if m == model.CRPRSameTransition {
		return CRPRSameTransition
	}
	return CRPRSamePin
}

// Query describes one CPPR query: the unified request value consumed by
// Timer.Run, Timer.ReportBatch and Timer.PostCPPRSlacksCtx. It carries
// the former Options fields plus the optional capture-endpoint filter
// that previously required the separate EndpointReport entry point.
//
// The zero value is a valid query for zero paths; set K and Mode for a
// useful one. Query is a comparable value type: ReportBatch relies on
// that to merge equivalent queries.
type Query struct {
	// K is the number of post-CPPR critical paths to report (>= 0;
	// 0 yields an empty report).
	K int
	// Mode selects setup or hold analysis.
	Mode model.Mode
	// Threads bounds parallelism; <= 0 uses all available cores.
	Threads int
	// Algorithm selects the implementation; default AlgoLCA.
	Algorithm Algorithm
	// IncludePOs adds output-check paths at constrained primary outputs
	// (AlgoLCA only; extension beyond the paper).
	IncludePOs bool
	// FilterCapture restricts the query to paths captured by CaptureFF
	// (report_timing -to style; AlgoLCA only). When false (default),
	// all endpoints are analysed and CaptureFF is ignored.
	FilterCapture bool
	CaptureFF     model.FFID
	// Corners selects the delay corners analysed, as a bitmask: bit c
	// selects corner c (see CornerBit). The zero mask means corner 0
	// only — the single-corner fast path — and CornerAll selects every
	// corner of the design. A multi-corner query fans out per corner
	// and merges into a worst-corner report: paths from all selected
	// corners compete by post-CPPR slack and Report.PathCorners names
	// the corner each reported path was computed at.
	Corners CornerMask
	// NoCache bypasses the timer's incremental caches — the per-corner
	// candidate-job cache and the per-snapshot query memo — forcing a
	// cold run. Cached and uncached runs produce byte-identical reports;
	// only the work performed differs.
	NoCache bool
	// CRPR selects the credit semantics (same_pin vs same_transition).
	// CRPRDefault defers to the snapshot's SDC default; normalization
	// resolves it to a concrete mode so equivalent queries compare
	// equal. Supported by every algorithm, oracle included.
	CRPR CRPRSetting
	// Timeout, when positive, bounds this query's execution: Run (and,
	// per execution unit, ReportBatch) derives a child context with this
	// deadline, so one slow query cannot consume a whole batch's budget —
	// it alone fails with ErrDeadlineExceeded while the other batch
	// entries complete. Zero means no per-query limit (the caller's
	// context still applies). ReportBatch coalesces queries that differ
	// only in Timeout; the shared run gets the most generous budget of
	// its members (unlimited if any member is unlimited).
	Timeout time.Duration
}

// Normalize validates q and canonicalises it in place: negative Threads
// and Timeout are clamped to 0 (all cores / no limit), a zero Corners
// mask becomes corner 0, and an ignored CaptureFF is cleared so
// equivalent queries compare equal. CornerAll is clamped to the design's corners at query time. It returns an error matching
// ErrInvalidQuery for a negative K, an unknown Algorithm, or a capture
// filter on an algorithm that cannot serve it. Range-checking CaptureFF
// against the design happens at query time, not here.
func (q *Query) Normalize() error {
	if q.K < 0 {
		return qerr.Invalid("K must be non-negative, got %d", q.K)
	}
	switch q.Algorithm {
	case AlgoLCA, AlgoPairwise, AlgoBlockwise, AlgoBranchAndBound,
		AlgoBruteForce:
	default:
		return qerr.Invalid("unknown algorithm %v", q.Algorithm)
	}
	switch q.CRPR {
	case CRPRDefault, CRPRSamePin, CRPRSameTransition:
	default:
		return qerr.Invalid("unknown CRPR setting %d", int(q.CRPR))
	}
	if q.Threads < 0 {
		q.Threads = 0
	}
	if q.Timeout < 0 {
		q.Timeout = 0
	}
	if q.Corners == 0 {
		q.Corners = CornerBit(model.BaseCorner)
	}
	if q.FilterCapture {
		if q.Algorithm != AlgoLCA {
			return qerr.Invalid("capture-endpoint filtering supports AlgoLCA only, got %v", q.Algorithm)
		}
		if q.CaptureFF < 0 {
			return qerr.Invalid("FF id %d out of range", q.CaptureFF)
		}
	} else {
		q.CaptureFF = 0
	}
	return nil
}
