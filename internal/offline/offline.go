// Package offline provides in-memory SetCover solvers used as the
// algOfflineSC subroutine of the paper's algorithms (Figures 1.3 and 4.1)
// and as ground truth for approximation-ratio measurements.
//
// Two solvers are provided, matching the paper's two computational regimes
// (Section 2.1): Greedy with ρ = ln n under polynomial time, and Exact with
// ρ = 1 under "exponential computational power". The exact solver is a
// branch-and-bound that is fast at the sub-instance sizes iterSetCover
// produces and doubles as the OPT oracle for the Section 5/6 reduction
// checks.
package offline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/setcover"
)

// Solver solves a SetCover instance held entirely in memory and returns the
// IDs (positions) of the chosen sets.
type Solver interface {
	// Name identifies the solver in reports.
	Name() string
	// Rho returns the solver's approximation guarantee on instances with n
	// elements (ln n for greedy, 1 for exact).
	Rho(n int) float64
	// Solve returns set IDs covering the instance's universe. It returns
	// setcover.ErrInfeasible if some element is in no set.
	Solve(in *setcover.Instance) ([]int, error)
}

// Greedy is the classic greedy algorithm: repeatedly pick the set covering
// the most yet-uncovered elements. ρ = H(n) <= ln n + 1.
type Greedy struct{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Rho implements Solver.
func (Greedy) Rho(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Log(float64(n)) + 1
}

// Solve implements Solver: GreedyKernel from empty coverage, with the picks
// in selection order. That is the trajectory of a streaming greedy that
// scans sets in stream order and keeps the first strict maximum of
// gain/weight. On unit weights the pick rule is the pure-gain integer
// comparison.
func (Greedy) Solve(in *setcover.Instance) ([]int, error) {
	var cover []int
	left := GreedyKernel(in.N, in.Sets, in.Weights, bitset.New(in.N), func(id, _ int, _ []setcover.Elem) bool {
		cover = append(cover, id)
		return true
	})
	if left > 0 {
		return nil, setcover.ErrInfeasible
	}
	return cover, nil
}

// Exact is an optimal branch-and-bound solver (ρ = 1). Worst case is
// exponential; in practice the instances it sees here (offline sub-problems
// of iterSetCover, reduction gadgets of Sections 5–6) solve in milliseconds.
//
// Exact minimizes CARDINALITY and ignores Instance.Weights: it is the
// paper's unit-cost OPT oracle (Section 2.1), and the reductions it relies
// on (dominance, the counting lower bound) are cardinality arguments. On a
// weighted instance it still returns a valid cover — just the fewest-sets
// one, not the cheapest. Use Greedy for weighted sub-instances.
//
// Strategy: first apply the OPT-preserving dominance reductions of Reduce,
// then branch on the uncovered element contained in the fewest sets
// (fail-first), trying its candidate sets in decreasing-gain order; prune
// with a greedy upper bound and the counting lower bound
// ceil(#uncovered / max set size).
type Exact struct {
	// MaxNodes optionally bounds the search; 0 means unlimited. If the bound
	// is hit, Solve returns ErrBudget.
	MaxNodes int64
	// NoReduce disables the dominance preprocessing (used by tests to
	// exercise the raw branch-and-bound).
	NoReduce bool
}

// ErrBudget is returned by Exact.Solve when MaxNodes is exhausted.
var ErrBudget = fmt.Errorf("offline: exact solver node budget exhausted")

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Rho implements Solver.
func (Exact) Rho(int) float64 { return 1 }

// Solve implements Solver.
func (e Exact) Solve(in *setcover.Instance) ([]int, error) {
	if in.N == 0 {
		return nil, nil
	}
	if !e.NoReduce {
		red := Reduce(in)
		if red.RemovedSets > 0 || red.RemovedElems > 0 {
			inner := Exact{MaxNodes: e.MaxNodes, NoReduce: true}
			cover, err := inner.Solve(red.Instance)
			if err != nil {
				return nil, err
			}
			out := make([]int, len(cover))
			for i, id := range cover {
				out[i] = red.OrigSetID[id]
			}
			sort.Ints(out)
			return out, nil
		}
	}
	sets := in.Bitsets()

	// coveredBy[e] = IDs of sets containing e.
	coveredBy := make([][]int, in.N)
	for id, s := range in.Sets {
		for _, el := range s.Elems {
			coveredBy[el] = append(coveredBy[el], id)
		}
	}
	for el, ids := range coveredBy {
		if len(ids) == 0 {
			return nil, fmt.Errorf("%w: element %d", setcover.ErrInfeasible, el)
		}
	}

	// Greedy upper bound seeds the incumbent.
	incumbent, err := Greedy{}.Solve(in)
	if err != nil {
		return nil, err
	}
	best := append([]int(nil), incumbent...)

	maxSize := in.MaxSetSize()
	uncovered := bitset.New(in.N)
	uncovered.Fill()

	var nodes int64
	var cur []int
	var rec func() error
	rec = func() error {
		nodes++
		if e.MaxNodes > 0 && nodes > e.MaxNodes {
			return ErrBudget
		}
		rem := uncovered.Count()
		if rem == 0 {
			if len(cur) < len(best) {
				best = append(best[:0], cur...)
			}
			return nil
		}
		// Counting lower bound.
		lb := (rem + maxSize - 1) / maxSize
		if len(cur)+lb >= len(best) {
			return nil
		}
		// Fail-first: element with fewest live candidate sets.
		pivot, pivotCands := -1, math.MaxInt
		uncovered.ForEach(func(el int) bool {
			c := 0
			for _, id := range coveredBy[el] {
				if sets[id].Intersects(uncovered) {
					c++
				}
			}
			if c < pivotCands {
				pivotCands, pivot = c, el
			}
			return pivotCands > 1 // can't do better than 1
		})
		// Candidates covering the pivot, largest marginal gain first.
		cands := append([]int(nil), coveredBy[pivot]...)
		sort.Slice(cands, func(a, b int) bool {
			return sets[cands[a]].IntersectionCount(uncovered) > sets[cands[b]].IntersectionCount(uncovered)
		})
		for _, id := range cands {
			gain := sets[id].IntersectionCount(uncovered)
			if gain == 0 {
				continue
			}
			saved := uncovered.Clone()
			uncovered.Subtract(sets[id])
			cur = append(cur, id)
			if err := rec(); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
			uncovered.CopyFrom(saved)
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	sort.Ints(best)
	return best, nil
}

// OptSize returns |OPT| for the instance using the exact solver. It is the
// ground-truth helper used by experiments and reduction checks.
func OptSize(in *setcover.Instance) (int, error) {
	cover, err := Exact{}.Solve(in)
	if err != nil {
		return 0, err
	}
	return len(cover), nil
}
