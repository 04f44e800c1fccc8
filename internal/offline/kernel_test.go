package offline

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/setcover"
)

// sortOracleGreedy is the sort-based greedy loop offline.Greedy ran before
// GreedyKernel, kept verbatim as the reference oracle for the kernel's pick
// order: candidates sorted by stale cost-effectiveness, lazily refreshed,
// re-sorted after every pick.
func sortOracleGreedy(in *setcover.Instance) ([]int, error) {
	uncovered := bitset.New(in.N)
	uncovered.Fill()
	remaining := in.N

	// Entries sorted by (stale gain/weight desc, ID asc), lazily re-evaluated.
	type entry struct {
		gain int
		id   int
		w    float64
	}
	cands := make([]entry, 0, len(in.Sets))
	for _, s := range in.Sets {
		if len(s.Elems) > 0 {
			cands = append(cands, entry{gain: len(s.Elems), id: s.ID, w: in.Weight(s.ID)})
		}
	}
	less := func(i, j int) bool {
		gi, gj := float64(cands[i].gain)*cands[j].w, float64(cands[j].gain)*cands[i].w
		if gi != gj {
			return gi > gj
		}
		return cands[i].id < cands[j].id
	}
	sort.Slice(cands, less)

	var cover []int
	for remaining > 0 {
		// Find the fresh maximum (smallest ID on ties), refreshing stale
		// ratios as we go. A stale ratio strictly below the incumbent ends
		// the scan: gains only decrease, so no later entry can win. Stale
		// ratios equal to the incumbent must still be refreshed for ID
		// tie-breaking. bestW starts at 1 so the first productive candidate
		// beats the empty incumbent (gain·1 > 0·w).
		best, bestGain := -1, 0
		bestW := 1.0
		for i := 0; i < len(cands); i++ {
			e := &cands[i]
			stale, incumbent := float64(e.gain)*bestW, float64(bestGain)*e.w
			if stale < incumbent || (stale == incumbent && best >= 0 && e.id > cands[best].id) {
				if stale < incumbent {
					break
				}
				continue
			}
			fresh := uncovered.IntersectionWithSlice(in.Sets[e.id].Elems)
			e.gain = fresh
			fr, inc := float64(fresh)*bestW, float64(bestGain)*e.w
			if fr > inc || (fr == inc && best >= 0 && fresh > 0 && e.id < cands[best].id) {
				bestGain = fresh
				bestW = e.w
				best = i
			}
		}
		if best < 0 || bestGain == 0 {
			return nil, setcover.ErrInfeasible
		}
		id := cands[best].id
		cover = append(cover, id)
		remaining -= uncovered.SubtractSlice(in.Sets[id].Elems)
		cands[best].gain = 0
		sort.Slice(cands, less)
	}
	return cover, nil
}

// diffFamily draws one random instance for the kernel-vs-oracle test. Sets
// are deliberately NOT normalized: some are unsorted, some carry adjacent
// duplicate elements (gains count distinct elements, as the oracle's
// IntersectionWithSlice does for same-word runs), some are empty. Every
// fourth instance has an element no set contains, so it is infeasible.
func diffFamily(rng *rand.Rand, weights string) *setcover.Instance {
	n := 1 + rng.Intn(90)
	m := 1 + rng.Intn(70)
	in := &setcover.Instance{N: n}
	hole := -1
	if rng.Intn(4) == 0 {
		hole = rng.Intn(n)
	}
	maxSize := 1 + rng.Intn(n)
	for id := 0; id < m; id++ {
		var es []setcover.Elem
		if rng.Intn(10) > 0 { // ~10% empty sets
			for k := rng.Intn(maxSize + 1); k > 0; k-- {
				if e := rng.Intn(n); e != hole {
					es = append(es, setcover.Elem(e))
				}
			}
		}
		if rng.Intn(3) > 0 {
			// Sorted, keeping duplicates adjacent.
			sort.Slice(es, func(a, b int) bool { return es[a] < es[b] })
		} else {
			// Unsorted: drop duplicates (non-adjacent duplicates straddling
			// another word would be counted twice by the oracle's
			// same-word-run popcount; the kernel counts distinct elements).
			seen := map[setcover.Elem]bool{}
			uniq := es[:0]
			for _, e := range es {
				if !seen[e] {
					seen[e] = true
					uniq = append(uniq, e)
				}
			}
			es = uniq
		}
		in.Sets = append(in.Sets, setcover.Set{ID: id, Elems: es})
	}
	if hole < 0 {
		// Patch coverage with singletons so most instances are feasible.
		covered := make([]bool, n)
		for _, s := range in.Sets {
			for _, e := range s.Elems {
				covered[e] = true
			}
		}
		for e, ok := range covered {
			if !ok {
				in.Sets = append(in.Sets, setcover.Set{ID: len(in.Sets), Elems: []setcover.Elem{setcover.Elem(e)}})
			}
		}
	}
	m = len(in.Sets)
	switch weights {
	case "unit":
	case "loguniform":
		in.Weights = make([]float64, m)
		for i := range in.Weights {
			in.Weights[i] = 0.05 * math.Pow(20/0.05, rng.Float64())
		}
	case "pow2":
		in.Weights = make([]float64, m)
		for i := range in.Weights {
			in.Weights[i] = math.Ldexp(1, rng.Intn(9)-4)
		}
	case "thirds":
		in.Weights = make([]float64, m)
		for i := range in.Weights {
			in.Weights[i] = float64(1+rng.Intn(9)) / 3
		}
	case "boundary":
		// Ratios next to a power-of-two level boundary: set i's initial
		// ratio |S_i|/w_i is 2^L·64/(64+d) for small d, straddling 2^L.
		// Every weight is a short dyadic, so all products are exact.
		in.Weights = make([]float64, m)
		for i, s := range in.Sets {
			size := max(1, len(s.Elems))
			in.Weights[i] = math.Ldexp(float64(size*(64+rng.Intn(5)-2)), -6-(rng.Intn(7)-3))
		}
	case "extreme":
		// Log-uniform costs scaled by 2^-900, 1 or 2^900: buckets hundreds
		// of exponents apart.
		in.Weights = make([]float64, m)
		for i := range in.Weights {
			in.Weights[i] = math.Ldexp(0.05*math.Pow(20/0.05, rng.Float64()), 900*(rng.Intn(3)-1))
		}
	case "ulps":
		// Ratios within a few ulps of each other and of a level boundary:
		// 2^L nudged by independent roundings, so different ratios can have
		// equal rounded cross-products.
		in.Weights = make([]float64, m)
		for i, s := range in.Sets {
			w := float64(max(1, len(s.Elems))) / math.Ldexp(1, rng.Intn(7)-3)
			for k := rng.Intn(7) - 3; k != 0; {
				if k > 0 {
					w, k = math.Nextafter(w, math.Inf(1)), k-1
				} else {
					w, k = math.Nextafter(w, 0), k+1
				}
			}
			in.Weights[i] = w
		}
	}
	return in
}

// TestGreedyKernelMatchesSortOracle pins GreedyKernel's exact pick order to
// the sort-based loop it replaced, on unit and weighted random families —
// log-uniform 0.05–20, power-of-two, and ratios next to a power-of-two level
// boundary — with unnormalized, empty, and infeasible inputs. These are the
// families on which the oracle's rounded cross-products never tie for
// different ratios; TestGreedyKernelMatchesExactOracle covers the rest.
func TestGreedyKernelMatchesSortOracle(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for _, weights := range []string{"unit", "loguniform", "pow2", "boundary"} {
		t.Run(weights, func(t *testing.T) {
			t.Parallel()
			infeasible := 0
			for seed := 0; seed < seeds; seed++ {
				in := diffFamily(rand.New(rand.NewSource(int64(seed))), weights)
				want, werr := sortOracleGreedy(in)
				got, gerr := Greedy{}.Solve(in)
				if !errors.Is(gerr, werr) && (werr != nil || gerr != nil) {
					t.Fatalf("seed %d: err %v, oracle err %v", seed, gerr, werr)
				}
				if werr != nil {
					infeasible++
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: picks %v, oracle %v", seed, got, want)
				}
			}
			if infeasible == 0 || infeasible == seeds {
				t.Fatalf("%d of %d instances infeasible; the family must mix both", infeasible, seeds)
			}
		})
	}
}

// exactOracleGreedy is the textbook greedy with exact rational arithmetic:
// every round scans all sets in ID order, counts distinct uncovered
// elements, and keeps the first strict maximum of gain/weight as a big.Rat.
func exactOracleGreedy(in *setcover.Instance) ([]int, error) {
	covered := make([]bool, in.N)
	left := in.N
	var cover []int
	for left > 0 {
		best, bestGain := -1, 0
		var bestRatio *big.Rat
		for id, s := range in.Sets {
			seen := map[setcover.Elem]bool{}
			g := 0
			for _, e := range s.Elems {
				if !covered[e] && !seen[e] {
					seen[e] = true
					g++
				}
			}
			if g == 0 {
				continue
			}
			r := new(big.Rat).SetInt64(int64(g))
			r.Quo(r, new(big.Rat).SetFloat64(in.Weight(id)))
			if best < 0 || r.Cmp(bestRatio) > 0 {
				best, bestGain, bestRatio = id, g, r
			}
		}
		if best < 0 {
			return nil, setcover.ErrInfeasible
		}
		cover = append(cover, best)
		for _, e := range in.Sets[best].Elems {
			covered[e] = true
		}
		left -= bestGain
	}
	return cover, nil
}

// TestGreedyKernelMatchesExactOracle pins the kernel to exact arithmetic on
// every family, including the two where rounded cross-products tie for
// different ratios — thirds (3/1 against 1/fl(1/3)) and weights a few ulps
// apart around a level boundary, where the sort loop's pick depended on its
// sort order — and weights 2^900 apart.
func TestGreedyKernelMatchesExactOracle(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 100
	}
	for _, weights := range []string{"unit", "loguniform", "pow2", "boundary", "thirds", "ulps", "extreme"} {
		t.Run(weights, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < seeds; seed++ {
				in := diffFamily(rand.New(rand.NewSource(int64(seed))), weights)
				want, werr := exactOracleGreedy(in)
				got, gerr := Greedy{}.Solve(in)
				if (werr == nil) != (gerr == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d: picks %v (%v), exact oracle %v (%v)", seed, got, gerr, want, werr)
				}
			}
		})
	}
}

func TestRatioCmp(t *testing.T) {
	third := 1.0 / 3
	for _, c := range []struct {
		ga   int
		wa   float64
		gb   int
		wb   float64
		want int
	}{
		{3, 1, 1, 1, 1},
		{1, 1, 3, 1, -1},
		{2, 1, 4, 2, 0},
		// 3·fl(1/3) rounds to exactly 1 = 1·1, yet 1/fl(1/3) > 3.
		{3, 1, 1, third, -1},
		{1, third, 3, 1, 1},
		{2, 2 * third, 1, third, 0},
	} {
		if got := RatioCmp(c.ga, c.wa, c.gb, c.wb); got != c.want {
			t.Errorf("RatioCmp(%d, %v, %d, %v) = %d, want %d", c.ga, c.wa, c.gb, c.wb, got, c.want)
		}
	}
}

// TestGreedyKernelResume: a run resumed from the coverage of any prefix of a
// full run's picks continues with exactly the full run's suffix — the
// property the dynamic solver's incremental replay rests on.
func TestGreedyKernelResume(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, weights := range []string{"unit", "loguniform"} {
			in := diffFamily(rand.New(rand.NewSource(seed)), weights)
			var full []int
			var newly [][]setcover.Elem
			GreedyKernel(in.N, in.Sets, in.Weights, bitset.New(in.N), func(id, _ int, nw []setcover.Elem) bool {
				full = append(full, id)
				newly = append(newly, slices.Clone(nw))
				return true
			})
			for cut := 0; cut <= len(full); cut++ {
				covered := bitset.New(in.N)
				for _, nw := range newly[:cut] {
					for _, e := range nw {
						covered.Set(int(e))
					}
				}
				var rest []int
				GreedyKernel(in.N, in.Sets, in.Weights, covered, func(id, _ int, _ []setcover.Elem) bool {
					rest = append(rest, id)
					return true
				})
				if !slices.Equal(rest, full[cut:]) {
					t.Fatalf("%s seed %d cut %d: resumed %v, full suffix %v", weights, seed, cut, rest, full[cut:])
				}
			}
		}
	}
}

// fuzzFamily decodes a fuzz input into an instance: a universe size, a
// weighted flag, then sets of up to 11 elements (unsorted, with duplicates,
// possibly empty) and, when weighted, one cost per set. Costs are
// (1+b/256)·2^e for e in [-20, 20], nudged up to 3 ulps either way, so
// distinct ratios can have equal rounded cross-products.
func fuzzFamily(data []byte) *setcover.Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	in := &setcover.Instance{N: 1 + next()%48}
	weighted := next()%2 == 1
	for len(data) > 0 && len(in.Sets) < 64 {
		var es []setcover.Elem
		for size := next() % 12; size > 0; size-- {
			es = append(es, setcover.Elem(next()%in.N))
		}
		in.Sets = append(in.Sets, setcover.Set{ID: len(in.Sets), Elems: es})
		if weighted {
			w := math.Ldexp(1+float64(next())/256, next()%41-20)
			for k := next()%7 - 3; k != 0; {
				if k > 0 {
					w, k = math.Nextafter(w, math.Inf(1)), k-1
				} else {
					w, k = math.Nextafter(w, 0), k+1
				}
			}
			in.Weights = append(in.Weights, w)
		}
	}
	return in
}

// FuzzGreedyKernel checks the kernel's pick order against the exact-rational
// oracle on every fuzzed family, against the sort-based oracle on unit
// weights, and checks that a run resumed from half the picks' coverage
// finishes with the same suffix.
func FuzzGreedyKernel(f *testing.F) {
	f.Add([]byte{5, 0, 3, 0, 1, 2, 2, 3, 4, 1, 4})
	f.Add([]byte{9, 1, 4, 0, 1, 2, 3, 7, 0, 2, 4, 5, 6, 7, 128, 3, 3, 2, 8, 8, 255, 1, 6})
	f.Add([]byte{30, 1, 3, 1, 2, 3, 0, 20, 3, 3, 1, 2, 3, 0, 20, 3, 2, 3, 4, 5, 85, 21, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzFamily(data)
		want, werr := exactOracleGreedy(in)
		got, gerr := Greedy{}.Solve(in)
		if (werr == nil) != (gerr == nil) || !slices.Equal(got, want) {
			t.Fatalf("picks %v (%v), exact oracle %v (%v)", got, gerr, want, werr)
		}
		if in.Weights == nil {
			norm := &setcover.Instance{N: in.N}
			for _, s := range in.Sets {
				norm.Sets = append(norm.Sets, setcover.Set{Elems: slices.Clone(s.Elems)})
			}
			norm.Normalize()
			if sorted, _ := sortOracleGreedy(norm); !slices.Equal(got, sorted) {
				t.Fatalf("picks %v, sort oracle %v", got, sorted)
			}
		}
		if gerr != nil {
			return
		}
		covered := bitset.New(in.N)
		for _, id := range got[:len(got)/2] {
			for _, e := range in.Sets[id].Elems {
				covered.Set(int(e))
			}
		}
		var rest []int
		GreedyKernel(in.N, in.Sets, in.Weights, covered, func(id, _ int, _ []setcover.Elem) bool {
			rest = append(rest, id)
			return true
		})
		if !slices.Equal(rest, got[len(got)/2:]) {
			t.Fatalf("resumed %v, full suffix %v", rest, got[len(got)/2:])
		}
	})
}
