package scdyn

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/offline"
	"repro/internal/scdisk"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// refGreedy is the oracle: the textbook exact greedy (max marginal gain,
// ties to the smallest ID) with none of the density-level machinery.
func refGreedy(in *setcover.Instance) ([]int, bool) {
	covered := make([]bool, in.N)
	used := make([]bool, len(in.Sets))
	cnt := 0
	var cover []int
	for cnt < in.N {
		best, bestGain := -1, 0
		for id, s := range in.Sets {
			if used[id] {
				continue
			}
			g := 0
			for _, e := range s.Elems {
				if !covered[e] {
					g++
				}
			}
			if g > bestGain { // ascending IDs: first max is the min-ID winner
				best, bestGain = id, g
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		cover = append(cover, best)
		for _, e := range in.Sets[best].Elems {
			if !covered[e] {
				covered[e] = true
				cnt++
			}
		}
	}
	sort.Ints(cover)
	return cover, cnt == in.N
}

func intsEqual(a, b []int) bool {
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

// engineMatrix is the conformance grid: every setting must yield the same
// cover byte for byte.
func engineMatrix() []engine.Options {
	return []engine.Options{
		{Workers: 1, BatchSize: 1},
		{Workers: 2, BatchSize: 3},
		{Workers: runtime.NumCPU(), BatchSize: 0},
		{Workers: runtime.NumCPU(), BatchSize: 64, DisableSegmented: true},
	}
}

func TestSolveMatchesReferenceGreedy(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 400, M: 80, K: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, feasible := refGreedy(in)
	if !feasible {
		t.Fatal("planted instance must be coverable")
	}
	st, err := Solve(stream.NewSliceRepo(in), engine.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !st.Valid || !intsEqual(st.Cover, want) {
		t.Fatalf("Solve cover %v (valid=%t), reference %v", st.Cover, st.Valid, want)
	}
	if st.Algorithm != AlgorithmName || st.Passes != 1 {
		t.Fatalf("stats = %+v, want algo %q with 1 pass", st, AlgorithmName)
	}
}

// TestSolveBackendConformance pins one cover across every backend the
// engine can drive — slice, func, disk, and a mutated dyn view — at every
// engine setting in the matrix.
func TestSolveBackendConformance(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 600, M: 90, K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	if _, err := r.Apply([]Op{{Kind: OpTombstone, ID: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply([]Op{{Kind: OpAppend, Elems: []setcover.Elem{0, 1, 2, 599}}}); err != nil {
		t.Fatal(err)
	}
	view := r.View()
	mut, err := view.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	want, feasible := refGreedy(mut)
	if !feasible {
		t.Fatal("mutated family must still be coverable")
	}
	// The disk backend gets the mutated family flattened back to a plain
	// SCB1 file — same content through a different decode path.
	disk, err := scdisk.Open(writeBase(t, mut))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	backends := map[string]func() stream.Repository{
		"slice": func() stream.Repository { return stream.NewSliceRepo(mut) },
		"func": func() stream.Repository {
			return stream.NewSequentialFuncRepo(mut.N, len(mut.Sets), func(id int) setcover.Set {
				return mut.Sets[id]
			})
		},
		"disk": func() stream.Repository { return disk },
		"view": func() stream.Repository { return view },
	}
	for name, mk := range backends {
		for _, opts := range engineMatrix() {
			st, err := Solve(mk(), opts)
			if err != nil {
				t.Fatalf("%s w=%d b=%d: %v", name, opts.Workers, opts.BatchSize, err)
			}
			if !st.Valid || !intsEqual(st.Cover, want) {
				t.Fatalf("%s w=%d b=%d: cover %v, want %v", name, opts.Workers, opts.BatchSize, st.Cover, want)
			}
		}
	}
}

// TestIncrementalMatchesFull is the core conformance claim: after every
// mutation batch, EnsureAt's incremental answer equals a from-scratch Solve
// on the pinned view AND the reference greedy on the materialized family —
// at every engine setting.
func TestIncrementalMatchesFull(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 800, M: 120, K: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)

	// Prime at generation 0: a full solve (one engine pass).
	st0, inc, err := solver.EnsureAt(0, engine.Options{})
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if inc || st0.Passes != 1 {
		t.Fatalf("prime: incremental=%t passes=%d, want full with 1 pass", inc, st0.Passes)
	}

	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 6; batch++ {
		var ops []Op
		// A couple of tombstones (possibly hitting cover sets) and appends.
		for k := 0; k < 2; k++ {
			id := rng.Intn(r.NumSets())
			ops = append(ops, Op{Kind: OpTombstone, ID: id})
		}
		for k := 0; k < 2; k++ {
			elems := randomElems(rng, in.N, 1+rng.Intn(40))
			ops = append(ops, Op{Kind: OpAppend, Elems: elems})
		}
		ops = dedupeTombstones(r, ops)
		if _, err := r.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		gen := r.Generation()
		view, err := r.ViewAt(gen)
		if err != nil {
			t.Fatal(err)
		}
		mutInst, err := view.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		refCover, feasible := refGreedy(mutInst)

		stInc, inc, incErr := solver.EnsureAt(gen, engine.Options{})
		if feasible {
			if incErr != nil {
				t.Fatalf("batch %d: EnsureAt: %v", batch, incErr)
			}
		} else if incErr != setcover.ErrInfeasible {
			t.Fatalf("batch %d: EnsureAt err = %v, want ErrInfeasible", batch, incErr)
		}
		if !inc || stInc.Passes != 0 {
			t.Fatalf("batch %d: incremental=%t passes=%d, want incremental with 0 passes", batch, inc, stInc.Passes)
		}
		if feasible && !intsEqual(stInc.Cover, refCover) {
			t.Fatalf("batch %d: incremental %v, reference %v", batch, stInc.Cover, refCover)
		}
		for _, opts := range engineMatrix() {
			stFull, fullErr := Solve(view, opts)
			if (fullErr == nil) != (incErr == nil) {
				t.Fatalf("batch %d: full err %v vs incremental err %v", batch, fullErr, incErr)
			}
			if !intsEqual(stFull.Cover, stInc.Cover) {
				t.Fatalf("batch %d w=%d: full %v vs incremental %v", batch, opts.Workers, stFull.Cover, stInc.Cover)
			}
		}
	}
}

// TestFallbackPathMatches forces the dirty-fraction fallback (t* = 0) and
// checks it still agrees with the full solve.
func TestFallbackPathMatches(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 500, M: 70, K: 7, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	solver.FallbackDirtyFraction = 1e-9 // any batch trips the fallback
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply([]Op{{Kind: OpAppend, Elems: []setcover.Elem{0, 250, 499}}}); err != nil {
		t.Fatal(err)
	}
	st, inc, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !inc || st.Passes != 0 {
		t.Fatalf("fallback still avoids the stream: incremental=%t passes=%d", inc, st.Passes)
	}
	if st.Extra != 0 {
		t.Fatalf("fallback reused prefix %v, want 0", st.Extra)
	}
	stFull, err := Solve(r.View(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !intsEqual(st.Cover, stFull.Cover) {
		t.Fatalf("fallback %v vs full %v", st.Cover, stFull.Cover)
	}
}

// TestInfeasibleAndBack drives the family infeasible by tombstoning the only
// set covering an element, then appends a repair set.
func TestInfeasibleAndBack(t *testing.T) {
	in := smallInstance()
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	// Sets 1 and 3 are the only ones with 4 and 5; kill both.
	if _, err := r.Apply([]Op{{Kind: OpTombstone, ID: 1}, {Kind: OpTombstone, ID: 3}}); err != nil {
		t.Fatal(err)
	}
	st, _, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != setcover.ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if st.Valid {
		t.Fatal("stats claim valid on an uncoverable family")
	}
	if _, err := r.Apply([]Op{{Kind: OpAppend, Elems: []setcover.Elem{4, 5}}}); err != nil {
		t.Fatal(err)
	}
	st, inc, err := solver.EnsureAt(r.Generation(), engine.Options{})
	if err != nil || !st.Valid {
		t.Fatalf("after repair: err=%v valid=%t", err, st.Valid)
	}
	if !inc {
		t.Fatal("repair should be incremental")
	}
	want, _ := refGreedy(mustMaterialize(t, r.View()))
	if !intsEqual(st.Cover, want) {
		t.Fatalf("repaired cover %v, reference %v", st.Cover, want)
	}
}

// TestEnsureAtOldGeneration asks the solver to step back to an older pinned
// generation: it must re-ingest that view, not serve newer state.
func TestEnsureAtOldGeneration(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 300, M: 40, K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, writeBase(t, in))
	solver := NewSolver(r)
	if _, _, err := solver.EnsureAt(0, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	want0, _ := refGreedy(mustMaterialize(t, r.View()))
	if _, err := r.Apply([]Op{{Kind: OpAppend, Elems: []setcover.Elem{0, 150, 299}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := solver.EnsureAt(1, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	st, inc, err := solver.EnsureAt(0, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inc {
		t.Fatal("rolling back must be a full solve")
	}
	if !intsEqual(st.Cover, want0) {
		t.Fatalf("gen-0 cover %v, want %v", st.Cover, want0)
	}
	if g := solver.Generation(); g != 1 {
		t.Fatalf("stale-generation request rolled state back to %d, want 1", g)
	}
}

func mustMaterialize(t *testing.T, v *View) *setcover.Instance {
	t.Helper()
	in, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randomElems draws k distinct sorted elements from [0, n).
func randomElems(rng *rand.Rand, n, k int) []setcover.Elem {
	seen := map[int]bool{}
	for len(seen) < k && len(seen) < n {
		seen[rng.Intn(n)] = true
	}
	out := make([]setcover.Elem, 0, len(seen))
	for e := range seen {
		out = append(out, setcover.Elem(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dedupeTombstones drops tombstone ops whose target is already dead (or
// repeated within the batch), keeping random batches valid.
func dedupeTombstones(r *Repo, ops []Op) []Op {
	recs, _ := r.Records(0, r.Generation())
	dead := map[int]bool{}
	for _, rec := range recs {
		if rec.Kind == OpTombstone {
			dead[rec.ID] = true
		}
	}
	out := ops[:0]
	for _, op := range ops {
		if op.Kind == OpTombstone {
			if dead[op.ID] {
				continue
			}
			dead[op.ID] = true
		}
		out = append(out, op)
	}
	if len(out) == 0 {
		out = append(out, Op{Kind: OpAppend, Elems: []setcover.Elem{0}})
	}
	return out
}

// TestResumeFromAnyTruncation: truncating a from-scratch trace at any step
// and letting the kernel finish reproduces the from-scratch trace exactly —
// picks, recorded gains, and newly covered elements. This is the property
// every incremental re-solve rests on; weighted mirrors resume the same way.
func TestResumeFromAnyTruncation(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 500, M: 150, K: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: len(in.Sets), Lo: 0.05, Hi: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	weighted := &setcover.Instance{N: in.N, Sets: in.Sets, Weights: ws}
	for name, inst := range map[string]*setcover.Instance{"unit": in, "weighted": weighted} {
		solve := func() *coreState {
			c := newCoreState(inst.N)
			if err := c.ingest(stream.NewSliceRepo(inst), engine.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			c.greedy()
			return c
		}
		full := solve()
		if !full.valid || len(full.steps) < 5 {
			t.Fatalf("%s: from-scratch trace valid=%t with %d steps; want a valid multi-step trace", name, full.valid, len(full.steps))
		}
		for cut := 0; cut <= len(full.steps); cut++ {
			c := solve()
			c.truncate(cut)
			c.greedy()
			if !c.valid || len(c.steps) != len(full.steps) {
				t.Fatalf("%s cut %d: resumed %d steps (valid=%t), from scratch %d", name, cut, len(c.steps), c.valid, len(full.steps))
			}
			for i, st := range c.steps {
				want := full.steps[i]
				if st.id != want.id || st.gain != want.gain || !elemsEqual(st.newly, want.newly) || c.stepOf[st.id] != i {
					t.Fatalf("%s cut %d: step %d = {%d %d %v}, from scratch {%d %d %v}", name, cut, i, st.id, st.gain, st.newly, want.id, want.gain, want.newly)
				}
			}
		}
	}
}

// TestSolveHonorsWeights: on a weighted repository Solve picks by
// cost-effectiveness — the same set as offline.Greedy and greedyn — and
// charges one space word per mirrored weight.
func TestSolveHonorsWeights(t *testing.T) {
	in, _, _, err := gen.Planted(gen.PlantedConfig{N: 600, M: 300, K: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: len(in.Sets), Lo: 0.05, Hi: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	weighted := &setcover.Instance{N: in.N, Sets: in.Sets, Weights: ws}
	want, err := offline.Greedy{}.Solve(weighted)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(want)
	plain, err := Solve(stream.NewSliceRepo(in), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range engineMatrix() {
		st, err := Solve(stream.NewSliceRepo(weighted), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Valid || !intsEqual(st.Cover, want) {
			t.Fatalf("w=%d b=%d: weighted cover %v, offline greedy %v", opts.Workers, opts.BatchSize, st.Cover, want)
		}
		if weighted.CoverWeight(st.Cover) >= weighted.CoverWeight(plain.Cover) {
			t.Fatalf("weighted cover cost %v not below the unit-weight cover's %v", weighted.CoverWeight(st.Cover), weighted.CoverWeight(plain.Cover))
		}
	}
	// Against the unit-weight solve of the same family, the mirror and
	// bitset charges match, the trace charge differs by the cover sizes,
	// and the rest is one word per weight.
	st, _ := Solve(stream.NewSliceRepo(weighted), engine.Options{Workers: 1})
	if got, wantW := st.SpaceWords-plain.SpaceWords, int64(len(ws)+len(st.Cover)-len(plain.Cover)); got != wantW {
		t.Fatalf("weighted space %d - unit space %d = %d, want %d (one word per weight)", st.SpaceWords, plain.SpaceWords, got, wantW)
	}
}
