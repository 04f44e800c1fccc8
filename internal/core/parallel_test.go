package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/setcover"
)

// The per-guess offline solves of an iteration run on the engine's workers.
// Covers, the winning guess, passes and both space figures must not depend
// on how many there are or which backend streams the family: plain,
// weighted, ε-partial and exact-offline runs at Workers ∈ {1, 2, 8} on
// SliceRepo, FuncRepo and DiskRepo all match the sequential run. Run it
// under -race: the guesses' sub-solves must share no mutable state.
func TestOfflinePhaseDeterministicAcrossWorkers(t *testing.T) {
	planted, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 900, K: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: planted.M(), Lo: 0.05, Hi: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	weighted := &setcover.Instance{N: planted.N, Sets: planted.Sets, Weights: ws}
	small, _, _, err := gen.Planted(gen.PlantedConfig{N: 120, M: 240, K: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *setcover.Instance
		opts Options
	}{
		{"plain", planted, Options{Delta: 0.5, Seed: 7}},
		{"weighted", weighted, Options{Delta: 0.5, Seed: 7}},
		{"partial", planted, Options{Delta: 0.34, Seed: 7, PartialEps: 0.1}},
		{"exact", small, Options{Delta: 0.5, Seed: 7, Offline: offline.Exact{}}},
	}
	for _, c := range cases {
		repos := conformanceRepos(t, c.in)
		opts := c.opts
		opts.Engine = engine.Options{Workers: 1}
		want, err := IterSetCover(repos["slice"](), opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		for backend, mk := range repos {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/%s/workers=%d", c.name, backend, workers)
				opts.Engine = engine.Options{Workers: workers}
				got, err := IterSetCover(mk(), opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameStats(t, label, want.Stats, got.Stats)
				if got.BestK != want.BestK || got.StoredProjectionWordsPeak != want.StoredProjectionWordsPeak {
					t.Errorf("%s: best k %d, projection peak %d; want %d, %d", label,
						got.BestK, got.StoredProjectionWordsPeak, want.BestK, want.StoredProjectionWordsPeak)
				}
			}
		}
	}
}
