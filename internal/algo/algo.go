// Package algo is the one table mapping algorithm names to code. Both front
// ends solve through it: cmd/setcover's -algo flag and the "algo" field of
// a POST /v1/solve body (internal/serve) look the name up here and call the
// row's Run, so a CLI solve and a wire solve of the same parameters run the
// same call and return byte-identical covers. The front ends differ only in
// how they fill Params (DESIGN.md §7).
package algo

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/maxcover"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdyn"
	"repro/internal/setcover"
	"repro/internal/stream"
)

// Params holds every knob any algorithm in the table reads. Each row reads
// only its own fields and ignores the rest.
type Params struct {
	// Delta is δ for iter and dimv14: 2/δ passes, Õ(m·n^δ) space.
	Delta float64
	// Seed drives the randomness of iter and dimv14.
	Seed int64
	// Eps switches iter, greedyn, threshold, er14 and cw16 to ε-Partial Set
	// Cover: cover at least a 1-ε fraction of U.
	Eps float64
	// Passes is cw16's pass budget.
	Passes int
	// ExactOffline makes iter solve its sub-instances with the exact offline
	// solver (ρ = 1) instead of greedy.
	ExactOffline bool
	// PDMode, PDEps and PDBatch are pd's reveal mode, dual increment and
	// element batch (zero means pd's default).
	PDMode  pd.Mode
	PDEps   float64
	PDBatch int
}

// Result is one solve's report: the Stats every algorithm returns, plus the
// extras iter and pd report.
type Result struct {
	setcover.Stats
	// BestK is iter's winning guess of the optimum; 0 for every other row.
	BestK int
	// Report is the algorithm-specific line cmd/setcover prints above its
	// summary (iter's best guess, pd's batch/round/frequency counts); empty
	// for every other row.
	Report string
}

// Algorithm is one row of the table. Every row minimizes total cost on a
// repository carrying per-set weights.
type Algorithm struct {
	// Name is the wire and -algo name.
	Name string
	// Run solves repo with p, running every pass on an engine built from
	// eng.
	Run func(repo stream.Repository, p Params, eng engine.Options) (Result, error)
}

// stats adapts an entry point returning plain Stats to a row's run.
func stats(st setcover.Stats, err error) (Result, error) {
	return Result{Stats: st}, err
}

var table = []Algorithm{
	{Name: "iter", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		opts := core.Options{Delta: p.Delta, Seed: p.Seed, PartialEps: p.Eps, Engine: eng}
		if p.ExactOffline {
			opts.Offline = offline.Exact{}
		}
		res, err := core.IterSetCover(repo, opts)
		return Result{Stats: res.Stats, BestK: res.BestK,
			Report: fmt.Sprintf("best guess k: %d", res.BestK)}, err
	}},
	{Name: "greedy1", Run: func(repo stream.Repository, _ Params, eng engine.Options) (Result, error) {
		return stats(baseline.OnePassGreedy(repo, eng))
	}},
	{Name: "greedyn", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		return stats(baseline.MultiPassGreedyPartial(repo, p.Eps, eng))
	}},
	{Name: "threshold", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		return stats(baseline.ThresholdGreedyPartial(repo, p.Eps, eng))
	}},
	{Name: "sg09", Run: func(repo stream.Repository, _ Params, eng engine.Options) (Result, error) {
		return stats(maxcover.SahaGetoorSetCover(repo, eng))
	}},
	{Name: "er14", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		return stats(baseline.EmekRosenPartial(repo, p.Eps, eng))
	}},
	{Name: "cw16", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		return stats(baseline.ChakrabartiWirthPartial(repo, p.Passes, p.Eps, eng))
	}},
	{Name: "dimv14", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		return stats(baseline.DIMV14(repo, baseline.DIMV14Options{Delta: p.Delta, Seed: p.Seed}, eng))
	}},
	{Name: "pd", Run: func(repo stream.Repository, p Params, eng engine.Options) (Result, error) {
		res, err := pd.BatchedPrimalDual(repo, pd.Options{
			Mode: p.PDMode, Epsilon: p.PDEps, ElemBatch: p.PDBatch, Engine: eng,
		})
		return Result{Stats: res.Stats, Report: fmt.Sprintf("pd: %d batches, %d dual rounds, max frequency %d",
			res.Batches, res.Rounds, res.MaxFrequency)}, err
	}},
	// dyn is the from-scratch form of the exact greedy behind dynamic
	// instances.
	{Name: "dyn", Run: func(repo stream.Repository, _ Params, eng engine.Options) (Result, error) {
		return stats(scdyn.Solve(repo, eng))
	}},
}

// Names returns every row's name, in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, a := range table {
		names[i] = a.Name
	}
	return names
}

// Lookup returns the row named name.
func Lookup(name string) (Algorithm, bool) {
	for _, a := range table {
		if a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}
