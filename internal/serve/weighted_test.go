package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// weightedCatalog registers one weighted and one unweighted disk instance.
func weightedCatalog(t *testing.T) (*Catalog, *setcover.Instance) {
	t.Helper()
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 700, K: 12, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.scb")
	if err := scdisk.WriteFile(plainPath, in); err != nil {
		t.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{
		Kind: gen.WeightUniform, M: in.M(), Lo: 0.5, Hi: 4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Weights = ws
	weightedPath := filepath.Join(dir, "weighted.scb")
	if err := scdisk.WriteFile(weightedPath, in); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if _, err := cat.AddFile("plain", plainPath); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddFile("weighted", weightedPath); err != nil {
		t.Fatal(err)
	}
	return cat, in
}

// algo=pd must solve through the service with the same result a library call
// at the pinned parameters produces, and report the cover's cost; the
// catalog must expose the weight metadata the request assertions check.
func TestServePrimalDualOnWeightedInstance(t *testing.T) {
	cat, in := weightedCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	winst, ok := cat.Get("weighted")
	if !ok || !winst.Weighted || !(winst.WeightMin > 0) || winst.WeightMax < winst.WeightMin {
		t.Fatalf("weighted instance metadata wrong: %+v", winst)
	}
	if pinst, _ := cat.Get("plain"); pinst.Weighted {
		t.Fatal("plain instance claims weights")
	}

	code, view, apiErr := postSolve(t, ts.URL, map[string]any{
		"instance": "weighted", "algo": "pd",
	})
	if code != 200 || apiErr != nil {
		t.Fatalf("pd solve: %d, %v", code, apiErr)
	}
	if !view.Result.Valid || !in.IsCover(view.Result.Cover) {
		t.Fatal("served pd cover invalid")
	}

	// Library reference at the service's pinned parameters.
	d, err := scdisk.Open(winst.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref, err := pd.BatchedPrimalDual(d, pd.Options{ElemBatch: pdElemBatch})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Result.Cover) != len(ref.Cover) || view.Result.Passes != ref.Passes {
		t.Fatalf("served pd diverged from library: cover %d/%d passes %d/%d",
			len(view.Result.Cover), len(ref.Cover), view.Result.Passes, ref.Passes)
	}
	for i := range ref.Cover {
		if view.Result.Cover[i] != ref.Cover[i] {
			t.Fatalf("cover[%d] differs", i)
		}
	}
	want := stream.CoverWeight(d, ref.Cover)
	if math.Abs(view.Result.CoverWeight-want) > 1e-9 {
		t.Fatalf("cover_weight %v, want %v", view.Result.CoverWeight, want)
	}

	// Unweighted solves must omit cover_weight (zero value).
	code, view, apiErr = postSolve(t, ts.URL, map[string]any{
		"instance": "plain", "algo": "greedy1",
	})
	if code != 200 || apiErr != nil {
		t.Fatalf("plain solve: %d, %v", code, apiErr)
	}
	if view.Result.CoverWeight != 0 {
		t.Fatalf("unweighted solve reports cover_weight %v", view.Result.CoverWeight)
	}
}

// The weights assertion block must reject mismatches with structured 400s
// (code weight_mismatch) and admit matching assertions.
func TestServeWeightAssertions(t *testing.T) {
	cat, _ := weightedCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	winst, _ := cat.Get("weighted")
	cases := []struct {
		name     string
		instance string
		weights  map[string]any
		wantCode int
		wantAPI  string
	}{
		{"require on weighted", "weighted", map[string]any{"require": true}, 200, ""},
		{"bounds hold", "weighted", map[string]any{"min": 0.4, "max": 5.0}, 200, ""},
		{"require on plain", "plain", map[string]any{"require": true}, 400, CodeWeightMismatch},
		{"deny on weighted", "weighted", map[string]any{"require": false}, 400, CodeWeightMismatch},
		{"min too high", "weighted", map[string]any{"min": winst.WeightMax}, 400, CodeWeightMismatch},
		{"max too low", "weighted", map[string]any{"max": winst.WeightMin}, 400, CodeWeightMismatch},
		{"negative min", "weighted", map[string]any{"min": -1.0}, 400, CodeBadRequest},
		{"min above max", "weighted", map[string]any{"min": 3.0, "max": 2.0}, 400, CodeBadRequest},
		{"deny plus bounds", "plain", map[string]any{"require": false, "min": 1.0}, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		code, _, apiErr := postSolve(t, ts.URL, map[string]any{
			"instance": tc.instance, "algo": "greedy1", "weights": tc.weights,
		})
		if code != tc.wantCode {
			t.Fatalf("%s: status %d, want %d (err=%v)", tc.name, code, tc.wantCode, apiErr)
		}
		if tc.wantAPI != "" && (apiErr == nil || apiErr.Code != tc.wantAPI) {
			t.Fatalf("%s: error %v, want code %s", tc.name, apiErr, tc.wantAPI)
		}
	}

	// min too high assertion above relies on WeightMin < WeightMax; guard it.
	if !(winst.WeightMin < winst.WeightMax) {
		t.Fatalf("degenerate weight range: %v..%v", winst.WeightMin, winst.WeightMax)
	}
}

// algo=dyn honors per-set costs: on a weighted instance it selects exactly
// greedyn's sets, at the same cost. dyn reports them in ascending ID order,
// greedyn in pick order.
func TestServeDynMatchesGreedynOnWeighted(t *testing.T) {
	cat, in := weightedCatalog(t)
	srv := NewServer(cat, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	results := map[string]*SolveResult{}
	for _, algo := range []string{"dyn", "greedyn"} {
		code, view, apiErr := postSolve(t, ts.URL, map[string]any{"instance": "weighted", "algo": algo})
		if code != 200 || apiErr != nil || !view.Result.Valid || !in.IsCover(view.Result.Cover) {
			t.Fatalf("%s: status %d err %v", algo, code, apiErr)
		}
		results[algo] = view.Result
	}
	dyn, greedyn := results["dyn"], results["greedyn"]
	if sorted := slices.Sorted(slices.Values(greedyn.Cover)); !slices.Equal(dyn.Cover, sorted) {
		t.Fatalf("dyn cover %v, greedyn cover (sorted) %v", dyn.Cover, sorted)
	}
	if math.Abs(dyn.CoverWeight-greedyn.CoverWeight) > 1e-9 || math.Abs(dyn.CoverWeight-in.CoverWeight(dyn.Cover)) > 1e-9 {
		t.Fatalf("cover_weight dyn %v, greedyn %v, instance %v", dyn.CoverWeight, greedyn.CoverWeight, in.CoverWeight(dyn.Cover))
	}
}
