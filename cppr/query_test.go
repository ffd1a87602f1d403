package cppr

import (
	"errors"
	"strings"
	"testing"

	"fastcppr/model"
)

// TestParseAlgorithmRoundTrip pins that every accepted name parses to an
// algorithm whose String() parses back to the same algorithm, and that
// the canonical name round-trips exactly.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	names := []string{"lca", "ours", "", "pairwise", "opentimer",
		"blockwise", "happytimer", "bnb", "itimerc", "brute"}
	for _, name := range names {
		a, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", name, err)
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q.String()=%q): %v", name, a.String(), err)
		}
		if back != a {
			t.Errorf("round trip %q -> %v -> %q -> %v", name, a, a.String(), back)
		}
	}
	// Every defined algorithm's canonical name must parse.
	for _, a := range []Algorithm{AlgoLCA, AlgoPairwise, AlgoBlockwise,
		AlgoBranchAndBound, AlgoBruteForce} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%v.String()) = %v, %v", a, got, err)
		}
	}
}

// TestParseAlgorithmErrorListsAllNames is the regression test for the
// "want ..." list: it must mention every accepted canonical name.
func TestParseAlgorithmErrorListsAllNames(t *testing.T) {
	_, err := ParseAlgorithm("nope")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, name := range []string{"lca", "pairwise", "blockwise", "bnb", "brute"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestRetiredRerankRejected pins that the retired inexact rerank
// heuristic is gone from every entry point: its name fails to parse and
// its old enum value fails validation like any unknown algorithm.
func TestRetiredRerankRejected(t *testing.T) {
	if a, err := ParseAlgorithm("rerank"); err == nil {
		t.Fatalf("ParseAlgorithm(\"rerank\") = %v, want an error", a)
	}
	q := Query{K: 1, Algorithm: Algorithm(5)}
	if err := q.Normalize(); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("Normalize(Algorithm(5)) = %v, want ErrInvalidQuery", err)
	}
}

func TestQueryNormalize(t *testing.T) {
	cases := []struct {
		name    string
		in      Query
		wantErr bool
		want    Query // compared only when wantErr is false
	}{
		{name: "zero value", in: Query{}, want: Query{Corners: CornerBit(0)}},
		{name: "negative K", in: Query{K: -1}, wantErr: true},
		{name: "unknown algorithm", in: Query{Algorithm: Algorithm(42)}, wantErr: true},
		{name: "negative threads clamped", in: Query{K: 1, Threads: -3},
			want: Query{K: 1, Corners: CornerBit(0)}},
		{name: "ignored CaptureFF cleared", in: Query{K: 1, CaptureFF: 7},
			want: Query{K: 1, Corners: CornerBit(0)}},
		{name: "capture filter kept", in: Query{K: 1, FilterCapture: true, CaptureFF: 7},
			want: Query{K: 1, FilterCapture: true, CaptureFF: 7, Corners: CornerBit(0)}},
		{name: "capture filter on non-LCA",
			in: Query{K: 1, Algorithm: AlgoPairwise, FilterCapture: true}, wantErr: true},
		{name: "negative CaptureFF",
			in: Query{K: 1, FilterCapture: true, CaptureFF: -1}, wantErr: true},
		{name: "full query unchanged",
			in:   Query{K: 9, Mode: model.Hold, Threads: 2, Algorithm: AlgoBlockwise, IncludePOs: true},
			want: Query{K: 9, Mode: model.Hold, Threads: 2, Algorithm: AlgoBlockwise, IncludePOs: true, Corners: CornerBit(0)}},
		{name: "corner mask kept",
			in:   Query{K: 1, Corners: CornerBit(2) | CornerBit(0)},
			want: Query{K: 1, Corners: CornerBit(2) | CornerBit(0)}},
		{name: "corner-all kept for query-time clamping",
			in:   Query{K: 1, Corners: CornerAll},
			want: Query{K: 1, Corners: CornerAll}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.in
			err := q.Normalize()
			if tc.wantErr {
				if !errors.Is(err, ErrInvalidQuery) {
					t.Fatalf("err = %v, want ErrInvalidQuery", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if q != tc.want {
				t.Errorf("normalized %+v, want %+v", q, tc.want)
			}
		})
	}
}
