package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	ssc "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/scdyn"
	"repro/internal/setcover"
)

// Family sizes of the batch workloads.
const (
	batchN     = 2000
	batchM     = 10000
	plantedK   = 125 // offline-round's planted optimum
	skewLight  = 16  // pass-round's light-set size
	geomPoints = 2000
	geomDisks  = 2000
	geomK      = 25

	setupReps   = 15 // batch set-ups per run; setup_s is their median
	scanReps    = 15 // counting passes behind scdisk.scan_ms
	minRounds   = 3  // a round_p50_s needs at least three rounds
	pdElemBatch = 256
)

// batchEnv is what a batch workload's set-up opens: the mmap'd SCB1 files by
// role, and the indexed shape stream of the geometric instance.
type batchEnv struct {
	repos  map[string]*scdisk.Repo
	shapes *geom.ShapeRepo
}

func (e *batchEnv) close() {
	for _, r := range e.repos {
		r.Close()
	}
}

// batchInputs are a batch workload's generated inputs.
type batchInputs struct {
	files map[string]string // role → SCB1 path
	geom  *geom.Instance    // nil when the round has no geometric solve
	main  string            // role of the file the scan metrics read
	cases func(env *batchEnv) []solveCase
}

// openBatch is the timed set-up of a batch workload: open and index every
// SCB1 file (mmap), compute its content digest (the key every cache and
// dynamic log binds results to), and index the shape stream.
func openBatch(in *batchInputs) (*batchEnv, error) {
	env := &batchEnv{repos: make(map[string]*scdisk.Repo, len(in.files))}
	for role, path := range in.files {
		d, err := scdisk.Open(path, scdisk.ReadOnlyMmap())
		if err != nil {
			env.close()
			return nil, err
		}
		env.repos[role] = d
		if _, err := d.Digest(); err != nil {
			env.close()
			return nil, err
		}
	}
	if in.geom != nil {
		env.shapes = geom.NewShapeRepo(in.geom)
		env.shapes.Precompute()
	}
	return env, nil
}

// solveCase is one solve of a round.
type solveCase struct {
	name string
	// resetPasses zeroes the pass counter of the stream the solve reads, so
	// Stats.Passes is this solve's alone.
	resetPasses func()
	solve       func(eng engine.Options, off offline.Solver) (setcover.Stats, error)
	// verify checks a cover independently of the algorithm (one extra pass
	// or a geometric containment test) and returns its cost.
	verify func(cover []int) (float64, error)
}

// diskCase is a solveCase over an SCB1 repository, verified with
// VerifyCover and priced with the file's weights (unit weights without).
func diskCase(name string, d *scdisk.Repo, solve func(eng engine.Options, off offline.Solver) (setcover.Stats, error)) solveCase {
	return solveCase{
		name: name, resetPasses: d.ResetPasses, solve: solve,
		verify: func(cover []int) (float64, error) {
			covered, n, err := ssc.VerifyCover(d, cover, engine.Options{})
			if err != nil {
				return 0, err
			}
			if covered != n {
				return 0, fmt.Errorf("cover reaches %d of %d elements", covered, n)
			}
			cost := 0.0
			for _, id := range cover {
				if d.HasWeights() {
					cost += d.Weight(id)
				} else {
					cost++
				}
			}
			return cost, nil
		},
	}
}

func offlineCases(env *batchEnv) []solveCase {
	p, pw := env.repos["planted"], env.repos["planted_w"]
	iter := func(d *scdisk.Repo) func(engine.Options, offline.Solver) (setcover.Stats, error) {
		return func(eng engine.Options, off offline.Solver) (setcover.Stats, error) {
			opts := core.DefaultOptions()
			opts.Offline, opts.Engine = off, eng
			res, err := core.IterSetCover(d, opts)
			return res.Stats, err
		}
	}
	shapes := env.shapes
	return []solveCase{
		diskCase("iter", p, iter(p)),
		diskCase("iter_w", pw, iter(pw)),
		diskCase("dimv14", p, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.DIMV14(p, baseline.DIMV14Options{Delta: 0.5, Seed: 1}, eng)
		}),
		diskCase("greedy1", p, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.OnePassGreedy(p, eng)
		}),
		diskCase("dyn", p, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return scdyn.Solve(p, eng)
		}),
		{
			name: "geom", resetPasses: shapes.ResetPasses,
			solve: func(eng engine.Options, off offline.Solver) (setcover.Stats, error) {
				res, err := geom.AlgGeomSC(shapes, geom.GeomOptions{Delta: 0.25, Seed: 1, Offline: off, Engine: eng})
				return res.Stats, err
			},
			verify: func(cover []int) (float64, error) {
				if !shapes.Instance().IsCover(cover) {
					return 0, fmt.Errorf("shapes do not cover every point")
				}
				return float64(len(cover)), nil
			},
		},
	}
}

func passCases(env *batchEnv) []solveCase {
	s := env.repos["skewed"]
	return []solveCase{
		diskCase("greedyn", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.MultiPassGreedy(s, eng)
		}),
		diskCase("threshold", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.ThresholdGreedy(s, eng)
		}),
		diskCase("sg09", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return maxcover.SahaGetoorSetCover(s, eng)
		}),
		diskCase("er14", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.EmekRosen(s, eng)
		}),
		diskCase("cw16", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			return baseline.ChakrabartiWirth(s, 2, eng)
		}),
		diskCase("pd", s, func(eng engine.Options, _ offline.Solver) (setcover.Stats, error) {
			res, err := pd.BatchedPrimalDual(s, pd.Options{ElemBatch: pdElemBatch, Engine: eng})
			return res.Stats, err
		}),
	}
}

// writeSCB1 spills a generated family to an indexed SCB1 file, with an SCWT
// weight section when ws is non-nil.
func writeSCB1(path string, n, m int, genSet func(int) setcover.Set, ws []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := scdisk.NewWriter(f, n, m)
	if err != nil {
		return err
	}
	if ws != nil {
		if err := w.SetWeights(ws); err != nil {
			return err
		}
	}
	for id := 0; id < m; id++ {
		if err := w.WriteSet(genSet(id).Elems); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}

// offlineInputs generates offline-round's planted file, its log-uniform
// weighted twin, and the planted-disks instance.
func offlineInputs(cfg config) (*batchInputs, error) {
	genSet, _, _, err := gen.PlantedFunc(gen.PlantedConfig{N: batchN, M: batchM, K: plantedK, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	ws, err := gen.WeightedSlice(gen.WeightedConfig{Kind: gen.WeightLogUniform, M: batchM, Lo: 0.05, Hi: 20, Seed: cfg.seed + 1})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{
		files: map[string]string{
			"planted":   filepath.Join(cfg.dir, "planted.scb"),
			"planted_w": filepath.Join(cfg.dir, "planted-w.scb"),
		},
		main: "planted", cases: offlineCases,
	}
	if err := writeSCB1(in.files["planted"], batchN, batchM, genSet, nil); err != nil {
		return nil, err
	}
	if err := writeSCB1(in.files["planted_w"], batchN, batchM, genSet, ws); err != nil {
		return nil, err
	}
	in.geom, _, err = geom.PlantedDisks(geomPoints, geomDisks, geomK, cfg.seed+2)
	return in, err
}

// passInputs generates pass-round's byte-skewed family (scbench's shape).
func passInputs(cfg config) (*batchInputs, error) {
	genSet, err := gen.SkewedFunc(gen.SkewedConfig{N: batchN, M: batchM, HeavyID: batchM / 3, LightSize: skewLight, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &batchInputs{
		files: map[string]string{"skewed": filepath.Join(cfg.dir, "skewed.scb")},
		main:  "skewed", cases: passCases,
	}
	return in, writeSCB1(in.files["skewed"], batchN, batchM, genSet, nil)
}

func offlineRound(cfg config) (*outcome, error) {
	in, err := offlineInputs(cfg)
	if err != nil {
		return nil, err
	}
	return runBatch(cfg, in)
}

func passRound(cfg config) (*outcome, error) {
	in, err := passInputs(cfg)
	if err != nil {
		return nil, err
	}
	return runBatch(cfg, in)
}

// timedOffline wraps the offline solver handed to core.Options.Offline and
// geom.GeomOptions.Offline, timing each call from outside the algorithm.
type timedOffline struct {
	inner offline.Solver

	mu    sync.Mutex
	calls int
	sets  int
	total time.Duration
}

func (t *timedOffline) Name() string      { return t.inner.Name() }
func (t *timedOffline) Rho(n int) float64 { return t.inner.Rho(n) }

func (t *timedOffline) Solve(in *setcover.Instance) ([]int, error) {
	start := time.Now()
	ids, err := t.inner.Solve(in)
	d := time.Since(start)
	t.mu.Lock()
	t.calls++
	t.sets += len(in.Sets)
	t.total += d
	t.mu.Unlock()
	return ids, err
}

// solveRun is one timed solve; passes and off are filled on traced rounds.
type solveRun struct {
	wall   time.Duration
	st     setcover.Stats
	passes []obs.PassTrace
	off    *timedOffline
}

// round is one closed-loop round: every case once, in order.
type round struct {
	wall    time.Duration
	allocMB float64
	runs    []solveRun
}

// runRound times one round. Traced rounds attach a fresh obs.Recorder and a
// timedOffline per solve; untraced rounds run with the plain engine options.
func runRound(cases []solveCase, eng engine.Options, traced bool) (*round, error) {
	r := &round{runs: make([]solveRun, len(cases))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, c := range cases {
		opts := eng
		var rec *obs.Recorder
		var off offline.Solver = offline.Greedy{}
		if traced {
			rec = &obs.Recorder{}
			opts.Tracer = rec
			r.runs[i].off = &timedOffline{inner: offline.Greedy{}}
			off = r.runs[i].off
		}
		c.resetPasses()
		t0 := time.Now()
		st, err := c.solve(opts, off)
		r.runs[i].wall = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		r.runs[i].st = st
		if rec != nil {
			r.runs[i].passes = rec.Passes()
		}
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return r, nil
}

// checker verifies every round's covers: the first round's with an
// independent pass, every later round's byte for byte against the first.
type checker struct {
	cases []solveCase
	ref   [][]int
	costs []float64
}

// check returns one message per wrong cover (empty when all are right).
func (c *checker) check(r *round) []string {
	var bad []string
	first := c.ref == nil
	if first {
		c.ref = make([][]int, len(c.cases))
		c.costs = make([]float64, len(c.cases))
	}
	for i, run := range r.runs {
		name := c.cases[i].name
		if !run.st.Valid {
			bad = append(bad, name+": algorithm reports an invalid cover")
			continue
		}
		if !first {
			if !slices.Equal(run.st.Cover, c.ref[i]) {
				bad = append(bad, name+": cover diverged from the first round's")
			}
			continue
		}
		cost, err := c.cases[i].verify(run.st.Cover)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: verify: %v", name, err))
			continue
		}
		c.ref[i], c.costs[i] = run.st.Cover, cost
	}
	return bad
}

func runBatch(cfg config, in *batchInputs) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var envs []*batchEnv
	setupS, err := medianOf(setupReps, func() error {
		env, err := openBatch(in)
		if err == nil {
			envs = append(envs, env)
		}
		return err
	})
	if err != nil {
		for _, e := range envs {
			e.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for _, e := range envs[:len(envs)-1] {
		e.close() // only the last set-up is used
	}
	env := envs[len(envs)-1]
	defer env.close()
	cases := in.cases(env)
	chk := &checker{cases: cases}
	if cfg.trace {
		return out, traceBatch(cfg, in, env, chk, out)
	}
	out.metrics["setup_s"] = setupS

	var rounds []*round
	start := time.Now()
	for {
		r, err := runRound(cases, engine.Options{}, false)
		out.attempted++
		if err != nil {
			out.fail("round %d: %v", len(rounds)+1, err)
			break
		}
		if bad := chk.check(r); len(bad) > 0 {
			out.fail("round %d: %v", len(rounds)+1, bad)
		}
		rounds = append(rounds, r)
		if len(rounds) >= minRounds && time.Since(start)+r.wall > cfg.budget {
			break
		}
	}
	if len(rounds) == 0 || chk.ref == nil {
		return out, nil
	}

	// req_* treat each solve as one request: the medians over rounds of
	// each round's p50 and p99 solve latency, and solves per second.
	var walls, p50s, p99s []float64
	var alloc, totalS float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		alloc += r.allocMB
		totalS += r.wall.Seconds()
		var solveMs []float64
		for _, run := range r.runs {
			solveMs = append(solveMs, ms(run.wall))
		}
		p50s = append(p50s, median(solveMs))
		p99s = append(p99s, quantile(solveMs, 0.99))
	}
	var cost float64
	var passes, space int64
	for i, run := range rounds[0].runs {
		cost += chk.costs[i]
		passes += int64(run.st.Passes)
		space += run.st.SpaceWords
	}
	out.metrics["round_p50_s"] = median(walls)
	out.metrics["cover_cost"] = cost
	out.metrics["passes"] = float64(passes)
	out.metrics["space_words"] = float64(space)
	out.metrics["alloc_mb_per_op"] = alloc / float64(len(rounds))
	out.metrics["req_p50_ms"] = median(p50s)
	out.metrics["req_p99_ms"] = median(p99s)
	out.metrics["req_per_s"] = float64(len(rounds)*len(cases)) / totalS
	out.note("%s: %d rounds of %d solves, closed loop, one client; setup_s is the median of %d set-ups",
		cfg.workload, len(rounds), len(cases), setupReps)
	return out, nil
}

// measureOpen records scdisk.open_ms and scdisk.digest_ms: the medians of
// setupReps mmap opens and content digests of the file at path.
func measureOpen(path string, m map[string]float64) error {
	openS, err := medianOf(setupReps, func() error {
		d, err := scdisk.Open(path, scdisk.ReadOnlyMmap())
		if err != nil {
			return err
		}
		return d.Close()
	})
	if err != nil {
		return err
	}
	d, err := scdisk.Open(path, scdisk.ReadOnlyMmap())
	if err != nil {
		return err
	}
	defer d.Close()
	digestS, err := medianOf(setupReps, func() error { _, err := d.Digest(); return err })
	m["scdisk.open_ms"], m["scdisk.digest_ms"] = openS*1e3, digestS*1e3
	return err
}

// traceBatch is a batch workload's traced run. It alternates untraced and
// traced rounds (plus, on pass-round, Workers=1 rounds) until the budget is
// spent, and derives the per-layer metrics from the traced rounds, the
// offline-solver wrapper, and counting scans of the main file.
func traceBatch(cfg config, in *batchInputs, env *batchEnv, chk *checker, out *outcome) error {
	m := out.metrics
	main := env.repos[in.main]
	if err := measureOpen(in.files[in.main], m); err != nil {
		return err
	}

	locks0 := main.PoolLockAcquisitions()
	scanEng := engine.New(engine.Options{})
	scanS, err := medianOf(scanReps, func() error {
		var sets int
		if err := scanEng.Run(main, engine.Func(func(b []setcover.Set) { sets += len(b) })); err != nil {
			return err
		}
		if sets != main.NumSets() {
			return fmt.Errorf("counting scan saw %d of %d sets", sets, main.NumSets())
		}
		return nil
	})
	if err != nil {
		return err
	}
	scanMs := scanS * 1e3
	m["scdisk.scan_ms"] = scanMs
	m["scdisk.scan_mb_per_s"] = float64(main.DataBytes()) / (1 << 20) / scanS
	m["scdisk.pool_locks_per_pass"] = float64(main.PoolLockAcquisitions()-locks0) / scanReps

	withW1 := in.geom == nil // pass-round: the single-thread reference round
	var plain, traced, w1 []*round
	start := time.Now()
	for {
		iterStart := time.Now()
		kinds := []string{"untraced", "traced"}
		if withW1 {
			kinds = append(kinds, "w1")
		}
		for _, kind := range kinds {
			eng := engine.Options{}
			if kind == "w1" {
				eng.Workers = 1
			}
			r, err := runRound(chk.cases, eng, kind == "traced")
			out.attempted++
			if err != nil {
				out.fail("%s round: %v", kind, err)
				return nil
			}
			if bad := chk.check(r); len(bad) > 0 {
				out.fail("%s round: %v", kind, bad)
			}
			switch kind {
			case "untraced":
				plain = append(plain, r)
			case "traced":
				traced = append(traced, r)
			default:
				w1 = append(w1, r)
			}
		}
		if time.Since(start)+time.Since(iterStart) > cfg.budget {
			break
		}
	}

	var plainWalls, tracedWalls, w1Walls []float64
	for _, r := range plain {
		plainWalls = append(plainWalls, r.wall.Seconds())
	}
	for _, r := range w1 {
		w1Walls = append(w1Walls, ms(r.wall))
	}
	n := float64(len(traced))
	var setPasses, segmented int
	var passMs, bytes, offMs float64
	var offCalls, offSets int
	for _, r := range traced {
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		for i, run := range r.runs {
			name := chk.cases[i].name
			var wallMs float64
			for _, p := range run.passes {
				wallMs += ms(p.Wall)
				if p.Kind == "sets" {
					setPasses++
					passMs += ms(p.Wall)
					bytes += float64(p.Bytes)
					if p.Segmented {
						segmented++
					}
				}
			}
			between := ms(run.wall) - wallMs
			// Layer accounting: the tracer must see every pass the solve
			// charged, and the passes must fit inside the solve's wall time.
			if len(run.passes) != run.st.Passes {
				out.fail("layer accounting: %s traced %d passes, Stats.Passes=%d", name, len(run.passes), run.st.Passes)
			}
			if between < 0 {
				out.fail("layer accounting: %s passes take %.3fms of a %.3fms solve", name, wallMs, ms(run.wall))
			}
			offRunMs := ms(run.off.total)
			if name == "iter" && offRunMs+wallMs < 0.95*ms(run.wall) {
				out.fail("layer accounting: iter offline %.1fms + passes %.1fms explain under 95%% of %.1fms",
					offRunMs, wallMs, ms(run.wall))
			}
			if name == "iter" {
				m["offline.iter_frac"] += offRunMs / ms(run.wall)
			}
			offMs += offRunMs
			offCalls += run.off.calls
			offSets += run.off.sets
			m["algo."+name+".ms"] += ms(run.wall)
			m["algo."+name+".between_ms"] += between
			m["algo."+name+".passes"] += float64(run.st.Passes)
			m["algo."+name+".space_words"] += float64(run.st.SpaceWords)
		}
	}
	for k := range m { // sums over the traced rounds → per-round means
		if strings.HasPrefix(k, "algo.") || k == "offline.iter_frac" {
			m[k] /= n
		}
	}
	m["engine.passes"] = float64(setPasses) / n
	m["engine.pass_ms"] = passMs / n
	m["engine.observe_ms"] = (passMs - float64(setPasses)*scanMs) / n
	if setPasses > 0 {
		m["engine.segmented_frac"] = float64(segmented) / float64(setPasses)
	}
	m["engine.bytes"] = bytes / n
	m["engine.w1_round_ms"] = median(w1Walls)
	m["offline.solve_ms"] = offMs / n
	m["offline.calls"] = float64(offCalls) / n
	m["offline.sub_sets"] = float64(offSets) / n
	m["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1

	roundMs := median(tracedWalls) * 1e3
	out.note("%s traced: %d untraced, %d traced, %d Workers=1 rounds; scan over %d passes",
		cfg.workload, len(plain), len(traced), len(w1), scanReps)
	out.note("  engine.pass_ms %.1f of a %.1fms traced round (%.0f%%); offline.solve_ms %.1f (%.0f%%); offline.calls %.0f",
		m["engine.pass_ms"], roundMs, 100*m["engine.pass_ms"]/roundMs, m["offline.solve_ms"],
		100*m["offline.solve_ms"]/roundMs, m["offline.calls"])
	return nil
}
