package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/pd"
	"repro/internal/scdisk"
	"repro/internal/serve"
)

// Serve-mix sizes and rates.
const (
	mixN, mixM, mixK = 1000, 4000, 62 // the planted instance the server holds
	lruEntries       = 16             // the server's memory result cache
	diskKeys         = 48             // er14 keys cycled past the LRU: every access is a disk hit
	mixClients       = 2              // open-loop connections and closed-loop clients
	serveSetupReps   = 3              // serve-mix set-ups per run; setup_s is their median
	hopProbes        = 200            // router/direct pairs behind fleet.hop_ms
	// openLoopRate is the fixed open-loop arrival rate in ops per second:
	// about a quarter of the closed-loop capacity of a 2-CPU machine when
	// the benchmark was introduced, low enough that host CPU steal is not
	// amplified by queueing (NOTES.md). Frozen: changing it changes the
	// workload.
	openLoopRate = 50
	// openShare and closedShare split --seconds between the phases of an
	// untraced run.
	openShare, closedShare = 0.75, 0.25
)

// coldAlgos are the cold class's algorithms: cheap pass-based solves, each
// request with a fresh seed so it misses both cache tiers.
var coldAlgos = []string{"er14", "cw16", "threshold", "sg09", "dyn"}

// memKeys are the mem_hit class's algorithms, solved once during set-up.
var memKeys = []string{"iter", "greedy1", "dimv14"}

// solveBody is the subset of the /v1/solve request the mix sends.
type solveBody struct {
	Instance string `json:"instance"`
	Algo     string `json:"algo"`
	Seed     int64  `json:"seed"`
	Resolve  string `json:"resolve,omitempty"`
	Stream   bool   `json:"stream,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
}

// mutateOp is one op of a /v1/instances/{name}/mutate body.
type mutateOp struct {
	Op    string `json:"op"`
	ID    *int   `json:"id,omitempty"`
	Elems []int  `json:"elems,omitempty"`
}

// mixOp is one op of the mix: a solve request, and for the mutate class the
// mutation sent before it.
type mixOp struct {
	class  string
	cycle  int
	solve  solveBody
	mutate []mutateOp
}

// schedule generates the mix from the seed, one cycle of 20 ops at a time:
// 6 mem_hit, 2 stream, 4 disk_hit, 5 cold, 1 coalesced and 2 mutate. The
// hit ops keep a fixed interleaving so each hot key is touched every ~10
// ops and stays in the LRU; the other 12 are shuffled. The coalesced pair
// is a cold pd solve (≈70 ms): long enough that both requests always join
// one job, and it puts the latency tail on solve time rather than on host
// scheduling stalls.
type schedule struct {
	mu       sync.Mutex
	rng      *rand.Rand
	trace    bool
	cycle    int
	pending  []mixOp
	coldSeed int64
	diskNext int
	tomb     []int // tombstone targets: shuffled non-planted base set ids
}

func newSchedule(seed int64, planted []int) *schedule {
	rng := rand.New(rand.NewSource(seed))
	isPlanted := make(map[int]bool, len(planted))
	for _, id := range planted {
		isPlanted[id] = true
	}
	var tomb []int
	for _, id := range rng.Perm(mixM) {
		if !isPlanted[id] {
			tomb = append(tomb, id)
		}
	}
	return &schedule{rng: rng, coldSeed: 1_000_000, tomb: tomb}
}

func (s *schedule) setTrace(on bool) {
	s.mu.Lock()
	s.trace = on
	s.mu.Unlock()
}

// next returns the next op in schedule order.
func (s *schedule) next() mixOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		s.pending = s.newCycleLocked()
	}
	op := s.pending[0]
	s.pending = s.pending[1:]
	return op
}

// nextCycle returns a whole fresh cycle, dropping what is left of the
// current one.
func (s *schedule) nextCycle() []mixOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = nil
	return s.newCycleLocked()
}

func (s *schedule) newCycleLocked() []mixOp {
	c := s.cycle
	s.cycle++
	op := func(class string, b solveBody) mixOp {
		b.Trace = s.trace
		return mixOp{class: class, cycle: c, solve: b}
	}
	fresh := func() int64 { s.coldSeed++; return s.coldSeed }
	hits := []mixOp{
		op("mem_hit", solveBody{Instance: "plant", Algo: "iter", Seed: 1}),
		op("mem_hit", solveBody{Instance: "plant", Algo: "greedy1", Seed: 1}),
		op("stream", solveBody{Instance: "plant", Algo: "pd", Seed: 1, Stream: true}),
		op("mem_hit", solveBody{Instance: "plant", Algo: "dimv14", Seed: 1}),
		op("mem_hit", solveBody{Instance: "plant", Algo: "iter", Seed: 1}),
		op("mem_hit", solveBody{Instance: "plant", Algo: "greedy1", Seed: 1}),
		op("stream", solveBody{Instance: "plant", Algo: "pd", Seed: 1, Stream: true}),
		op("mem_hit", solveBody{Instance: "plant", Algo: "dimv14", Seed: 1}),
	}
	var others []mixOp
	for i := 0; i < 4; i++ {
		others = append(others, op("disk_hit", solveBody{Instance: "plant", Algo: "er14", Seed: diskSeed(s.diskNext)}))
		s.diskNext++
	}
	for _, a := range coldAlgos {
		others = append(others, op("cold", solveBody{Instance: "plant", Algo: a, Seed: fresh()}))
	}
	others = append(others, op("coalesced", solveBody{Instance: "plant", Algo: "pd", Seed: fresh()}))
	for i := 0; i < 2; i++ {
		m := op("mutate", solveBody{Instance: "dyn", Algo: "dyn", Seed: 1, Resolve: "delta"})
		if len(s.tomb) > 0 { // append-only once every candidate is gone
			id := s.tomb[0]
			s.tomb = s.tomb[1:]
			m.mutate = append(m.mutate, mutateOp{Op: "tombstone", ID: &id})
		}
		elems := s.rng.Perm(mixN)[:mixN/mixK]
		sort.Ints(elems)
		m.mutate = append(m.mutate, mutateOp{Op: "append", Elems: elems})
		others = append(others, m)
	}
	s.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	// Spread the hits evenly among the others (Bresenham over 20 slots).
	total := len(hits) + len(others)
	cycle := make([]mixOp, 0, total)
	for i, h, o := 0, 0, 0; i < total; i++ {
		if (i+1)*len(hits)/total > i*len(hits)/total {
			cycle = append(cycle, hits[h])
			h++
		} else {
			cycle = append(cycle, others[o])
			o++
		}
	}
	return cycle
}

func diskSeed(i int) int64 { return int64(100 + i%diskKeys) }

// response is one decoded solve response.
type response struct {
	cached, coalesced bool
	result            serve.SolveResult
	trace             *serve.SolveTrace
}

// opResult is one executed op.
type opResult struct {
	op        mixOp
	lat, late time.Duration
	resps     []response
	err       error
}

// record counts executed ops as attempted, and failed ones as failed.
func (o *outcome) record(rs []opResult) {
	for _, r := range rs {
		o.attempted++
		if r.err != nil {
			o.fail("%s: %v", r.op.class, r.err)
		}
	}
}

// mixClient sends ops to the router (or, for probes, straight to the node).
type mixClient struct {
	http     *http.Client
	wantPD   []int // the library's pd cover: what the stream class must decode to
	routeURL string
}

func (c *mixClient) post(url string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// solve sends one buffered solve request and checks "valid":true.
func (c *mixClient) solve(base string, b solveBody) (response, error) {
	resp, err := c.post(base+"/v1/solve", b)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	var env struct {
		Cached    bool               `json:"cached"`
		Coalesced bool               `json:"coalesced"`
		Result    *serve.SolveResult `json:"result"`
		Trace     *serve.SolveTrace  `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return response{}, fmt.Errorf("%s: decoding response: %w", b.Algo, err)
	}
	if env.Result == nil || !env.Result.Valid {
		return response{}, fmt.Errorf("%s: response is not a valid cover", b.Algo)
	}
	return response{cached: env.Cached, coalesced: env.Coalesced, result: *env.Result, trace: env.Trace}, nil
}

// stream sends one NDJSON solve request and checks the eof trailer and
// that the chunks decode to the library's cover.
func (c *mixClient) stream(b solveBody) (response, error) {
	resp, err := c.post(c.routeURL+"/v1/solve", b)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var head response
	var cover []int
	lines, eof := 0, false
	for sc.Scan() {
		var line struct {
			Cached    bool               `json:"cached"`
			Result    *serve.SolveResult `json:"result"`
			Trace     *serve.SolveTrace  `json:"trace"`
			Cover     []int              `json:"cover"`
			EOF       bool               `json:"eof"`
			CoverSize int                `json:"cover_size"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return response{}, fmt.Errorf("stream: line %d: %w", lines+1, err)
		}
		lines++
		switch {
		case lines == 1:
			if line.Result == nil || !line.Result.Valid {
				return response{}, errors.New("stream: envelope is not a valid cover")
			}
			head = response{cached: line.Cached, result: *line.Result, trace: line.Trace}
		case line.EOF:
			if line.CoverSize != len(cover) {
				return response{}, fmt.Errorf("stream: trailer says %d sets, chunks carried %d", line.CoverSize, len(cover))
			}
			eof = true
		default:
			cover = append(cover, line.Cover...)
		}
	}
	if err := sc.Err(); err != nil {
		return response{}, fmt.Errorf("stream: %w", err)
	}
	if !eof {
		return response{}, errors.New("stream: missing eof trailer")
	}
	if !slices.Equal(cover, c.wantPD) {
		return response{}, errors.New("stream: cover differs from the library's pd cover")
	}
	return head, nil
}

// do executes one op through the router.
func (c *mixClient) do(op mixOp) opResult {
	r := opResult{op: op}
	switch op.class {
	case "stream":
		resp, err := c.stream(op.solve)
		r.resps, r.err = []response{resp}, err
	case "coalesced":
		// Two identical cold requests at once: one solve, one coalesced join.
		var wg sync.WaitGroup
		resps := make([]response, 2)
		errs := make([]error, 2)
		for i := range resps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i], errs[i] = c.solve(c.routeURL, op.solve)
			}()
		}
		wg.Wait()
		r.resps, r.err = resps, errors.Join(errs...)
	case "mutate":
		if r.err = c.mutate(op.mutate); r.err == nil {
			resp, err := c.solve(c.routeURL, op.solve)
			r.resps, r.err = []response{resp}, err
		}
	default:
		resp, err := c.solve(c.routeURL, op.solve)
		r.resps, r.err = []response{resp}, err
	}
	return r
}

// mutate applies ops to the dynamic instance through the router.
func (c *mixClient) mutate(ops []mutateOp) error {
	resp, err := c.post(c.routeURL+"/v1/instances/dyn/mutate", struct {
		Ops []mutateOp `json:"ops"`
	}{ops})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// openLoop sends ops at a fixed rate for dur with at most mixClients ops in
// flight, timing each from its due send time.
func openLoop(c *mixClient, s *schedule, rate float64, dur time.Duration) []opResult {
	var mu sync.Mutex
	var results []opResult
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				op := s.next()
				mu.Unlock()
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if due.Sub(start) >= dur {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				r := c.do(op)
				r.lat, r.late = time.Since(due), sent.Sub(due)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results
}

// closedLoop runs whole schedule cycles with mixClients closed-loop clients
// until dur has passed; a cycle (the serve-mix "round") ends when its last
// op answers. It returns the ops, the cycle wall times, the phase's
// elapsed time and its allocation.
func closedLoop(c *mixClient, s *schedule, dur time.Duration) ([]opResult, []float64, time.Duration, float64) {
	var results []opResult
	var cycles []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < dur {
		out, took := runCycle(c, s.nextCycle())
		cycles = append(cycles, took.Seconds())
		results = append(results, out...)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return results, cycles, elapsed, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// runCycle runs one cycle's ops with mixClients closed-loop clients and
// returns the results and the cycle's wall time.
func runCycle(c *mixClient, ops []mixOp) ([]opResult, time.Duration) {
	start := time.Now()
	out := make([]opResult, len(ops))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				sent := time.Now()
				out[i] = c.do(ops[i])
				out[i].lat = time.Since(sent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// mixEnv is one serve-mix deployment: a catalog and server behind a router,
// both on loopback listeners.
type mixEnv struct {
	cat            *serve.Catalog
	srv            *serve.Server
	rt             *fleet.Router
	node, front    *http.Server
	nodeURL, rtURL string
	served         sync.WaitGroup
}

// listen serves h on a loopback port until the returned server is closed.
func (e *mixEnv) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// startMix is serve-mix's timed set-up: register the instance (digest) and
// its dynamic copy (delta log), start server and router, and warm the
// cache tiers through the router.
func startMix(plant, dynPath, cacheDir string, c *mixClient) (*mixEnv, error) {
	e := &mixEnv{cat: serve.NewCatalog()}
	if _, err := e.cat.AddFile("plant", plant); err != nil {
		return e, err
	}
	if _, err := e.cat.AddDynamic("dyn", dynPath); err != nil {
		return e, err
	}
	e.srv = serve.NewServer(e.cat, serve.Config{MaxQueue: serve.DefaultMaxQueue, CacheSize: lruEntries, CacheDir: cacheDir})
	var err error
	if e.node, e.nodeURL, err = e.listen(e.srv.Handler()); err != nil {
		return e, err
	}
	if e.rt, err = fleet.NewRouter(fleet.Config{Nodes: []string{e.nodeURL}}); err != nil {
		return e, err
	}
	if e.front, e.rtURL, err = e.listen(e.rt.Handler()); err != nil {
		return e, err
	}
	// Disk keys first, so the LRU ends up holding the hot keys, not them.
	warm := make([]solveBody, 0, diskKeys+len(memKeys)+2)
	for i := 0; i < diskKeys; i++ {
		warm = append(warm, solveBody{Instance: "plant", Algo: "er14", Seed: diskSeed(i)})
	}
	for _, a := range append(append([]string{}, memKeys...), "pd") {
		warm = append(warm, solveBody{Instance: "plant", Algo: a, Seed: 1})
	}
	warm = append(warm, solveBody{Instance: "dyn", Algo: "dyn", Seed: 1, Resolve: "delta"})
	for _, b := range warm {
		if _, err := c.solve(e.rtURL, b); err != nil {
			return e, fmt.Errorf("warming %s: %w", b.Algo, err)
		}
	}
	return e, nil
}

// close stops router and server, waits for their listeners to exit, and
// closes the catalog.
func (e *mixEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.rt != nil {
		_ = e.rt.Shutdown(ctx) // drains in-flight relays; every op has answered by now
	}
	if e.srv != nil {
		_ = e.srv.Shutdown(ctx)
	}
	for _, hs := range []*http.Server{e.front, e.node} {
		if hs != nil {
			_ = hs.Shutdown(ctx)
		}
	}
	e.served.Wait()
	_ = e.cat.Close()
}

// scrape reads a Prometheus text exposition into name{labels} → value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumPrefix sums every series whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// mixInputs are serve-mix's generated inputs.
type mixInputs struct {
	plant   string
	planted []int
	wantPD  []int
}

func generateMix(cfg config) (*mixInputs, error) {
	genSet, planted, _, err := gen.PlantedFunc(gen.PlantedConfig{N: mixN, M: mixM, K: mixK, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &mixInputs{plant: filepath.Join(cfg.dir, "plant.scb"), planted: planted}
	if err := writeSCB1(in.plant, mixN, mixM, genSet, nil); err != nil {
		return nil, err
	}
	d, err := scdisk.Open(in.plant)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	res, err := pd.BatchedPrimalDual(d, pd.Options{ElemBatch: pdElemBatch, Engine: engine.Options{}})
	if err != nil {
		return nil, err
	}
	in.wantPD = res.Cover
	return in, nil
}

// setupMix copies the dynamic instance (input generation, untimed) and
// times one set-up.
func setupMix(cfg config, in *mixInputs, c *mixClient, rep int) (*mixEnv, time.Duration, error) {
	dynPath := filepath.Join(cfg.dir, fmt.Sprintf("dyn-%d.scb", rep))
	raw, err := os.ReadFile(in.plant)
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(dynPath, raw, 0o644); err != nil {
		return nil, 0, err
	}
	cacheDir := filepath.Join(cfg.dir, fmt.Sprintf("cache-%d", rep))
	if err := os.Mkdir(cacheDir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	env, err := startMix(in.plant, dynPath, cacheDir, c)
	took := time.Since(start)
	if err != nil {
		env.close()
		return nil, 0, fmt.Errorf("serve-mix set-up: %w", err)
	}
	return env, took, nil
}

func serveMix(cfg config) (*outcome, error) {
	in, err := generateMix(cfg)
	if err != nil {
		return nil, err
	}
	c := &mixClient{
		http:   &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		wantPD: in.wantPD,
	}
	defer c.http.CloseIdleConnections()
	out := &outcome{metrics: map[string]float64{}}
	sched := newSchedule(cfg.seed+1, in.planted)

	reps := serveSetupReps
	if cfg.trace {
		reps = 1
	}
	var env *mixEnv
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		var took time.Duration
		if env, took, err = setupMix(cfg, in, c, rep); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer env.close()
	c.routeURL = env.rtURL
	if cfg.trace {
		return out, traceMix(cfg, in, env, c, sched, out)
	}
	out.metrics["setup_s"] = median(setups)

	open := openLoop(c, sched, openLoopRate, time.Duration(openShare*float64(cfg.budget)))
	closed, cycles, elapsed, allocMB := closedLoop(c, sched, time.Duration(closedShare*float64(cfg.budget)))
	var lats, lates []float64
	for _, r := range open {
		lats = append(lats, ms(r.lat))
		lates = append(lates, ms(r.late))
	}
	out.record(open)
	out.record(closed)
	// Quality and cost columns: the first cycle's results, mutations
	// excluded (their covers depend on how concurrent mutations interleave).
	var cost, passes, space float64
	for _, r := range open {
		if r.op.cycle == 0 && r.op.class != "mutate" && r.err == nil {
			cost += float64(r.resps[0].result.CoverSize)
			passes += float64(r.resps[0].result.Passes)
			space += float64(r.resps[0].result.SpaceWords)
		}
	}
	m := out.metrics
	m["req_p50_ms"] = median(lats)
	m["req_p99_ms"] = quantile(lats, 0.99)
	m["req_per_s"] = float64(len(closed)) / elapsed.Seconds()
	m["round_p50_s"] = median(cycles)
	m["alloc_mb_per_op"] = allocMB / float64(len(closed))
	m["cover_cost"], m["passes"], m["space_words"] = cost, passes, space
	out.note("serve-mix: setup_s median of %d set-ups; open loop %d ops at %d/s (generator late p99 %.3fms); closed loop %d ops in %d cycles by %d clients",
		reps, len(open), openLoopRate, quantile(lates, 0.99), len(closed), len(cycles), mixClients)
	return out, nil
}

// traceMix is serve-mix's traced run: a traced open-loop phase for the
// per-class and per-phase latencies, /metrics scrapes around it,
// closed-loop cycles alternating untraced and traced for the tracing
// overhead, and router/direct probes for the router hop.
func traceMix(cfg config, in *mixInputs, env *mixEnv, c *mixClient, sched *schedule, out *outcome) error {
	m := out.metrics
	if err := measureOpen(in.plant, m); err != nil {
		return err
	}

	node0, err := scrape(c.http, env.nodeURL)
	if err != nil {
		return err
	}
	rt0, err := scrape(c.http, env.rtURL)
	if err != nil {
		return err
	}
	sched.setTrace(true)
	open := openLoop(c, sched, openLoopRate, cfg.budget/2)
	node1, err := scrape(c.http, env.nodeURL)
	if err != nil {
		return err
	}
	rt1, err := scrape(c.http, env.rtURL)
	if err != nil {
		return err
	}

	out.record(open)
	byClass := map[string][]float64{}
	phaseSum, latSum := map[string]float64{}, map[string]float64{}
	var queue, lookup, checkout, solve, lates []float64
	for _, r := range open {
		if r.err != nil {
			continue
		}
		cl := r.op.class
		byClass[cl] = append(byClass[cl], ms(r.lat))
		latSum[cl] += ms(r.lat) * float64(len(r.resps))
		lates = append(lates, ms(r.late))
		for _, resp := range r.resps {
			t := resp.trace
			if t == nil {
				out.fail("%s: traced request answered without a trace", cl)
				continue
			}
			phaseSum[cl] += t.QueueMillis + t.LookupMillis + t.SolveMillis
			lookup = append(lookup, t.LookupMillis)
			hitClass := cl == "mem_hit" || cl == "disk_hit" || cl == "stream"
			if hitClass && (!resp.cached || t.SolveMillis != 0) {
				out.fail("%s: a hit class ran a solve (cached=%v, solve_ms=%v)", cl, resp.cached, t.SolveMillis)
			}
			if !resp.cached && !resp.coalesced {
				queue = append(queue, t.QueueMillis)
				checkout = append(checkout, t.CheckoutMillis)
				solve = append(solve, t.SolveMillis)
			}
		}
	}
	for _, cl := range mixClasses {
		// Layer accounting: server phases cannot exceed what the client saw.
		if phaseSum[cl] > latSum[cl] {
			out.fail("layer accounting: %s phases sum to %.1fms, over its %.1fms client latency", cl, phaseSum[cl], latSum[cl])
		}
		xs := byClass[cl]
		m["class."+cl+".p50_ms"] = median(xs)
		m["class."+cl+".p90_ms"] = tailQuantile(xs, 0.90)
		m["class."+cl+".p99_ms"] = tailQuantile(xs, 0.99)
		out.note("  class %-9s %5d ops, p50 %.3fms", cl, len(xs), median(xs))
	}
	for name, xs := range map[string][]float64{"queue": queue, "lookup": lookup, "checkout": checkout, "solve": solve} {
		m["serve."+name+"_p50_ms"] = median(xs)
		m["serve."+name+"_p99_ms"] = quantile(xs, 0.99)
	}
	m["gen.late_p99_ms"] = quantile(lates, 0.99)

	delta := func(a, b map[string]float64, k string) float64 { return b[k] - a[k] }
	hits := delta(node0, node1, "setcoverd_cache_hits_total")
	disk := delta(node0, node1, "setcoverd_disk_cache_hits_total")
	coalesced := delta(node0, node1, "setcoverd_solves_coalesced_total")
	rejected := delta(node0, node1, "setcoverd_rejected_total")
	reqs := hits + delta(node0, node1, "setcoverd_cache_misses_total") + coalesced + rejected
	if reqs > 0 {
		m["serve.mem_hit_frac"] = (hits - disk) / reqs
		m["serve.disk_hit_frac"] = disk / reqs
	}
	m["serve.coalesced"], m["serve.rejected"] = coalesced, rejected
	routed := delta(rt0, rt1, "setcoverrt_requests_total")
	if routed > 0 {
		m["fleet.attempts_per_req"] = (sumPrefix(rt1, "setcoverrt_attempt_seconds_count") -
			sumPrefix(rt0, "setcoverrt_attempt_seconds_count")) / routed
	}
	m["fleet.retries"] = delta(rt0, rt1, "setcoverrt_retries_total")
	m["fleet.digest_invalidations"] = delta(rt0, rt1, "setcoverrt_digest_invalidations_total")

	// Tracing overhead: closed-loop cycles alternating untraced and traced.
	var cycles [2][]float64
	for start, i := time.Now(), 0; time.Since(start) < cfg.budget*2/5; i++ {
		sched.setTrace(i%2 == 1)
		ops, took := runCycle(c, sched.nextCycle())
		out.record(ops)
		cycles[i%2] = append(cycles[i%2], took.Seconds())
	}
	m["trace.overhead_frac"] = median(cycles[1])/median(cycles[0]) - 1

	// Router hop and wire time on identical memory hits.
	hit := solveBody{Instance: "plant", Algo: "iter", Seed: 1, Trace: true}
	var viaRouter, direct, wire []float64
	for i := 0; i < hopProbes; i++ {
		for _, base := range []string{env.rtURL, env.nodeURL} {
			t0 := time.Now()
			resp, err := c.solve(base, hit)
			lat := ms(time.Since(t0))
			out.attempted++
			if err == nil && resp.trace == nil {
				err = errors.New("traced request answered without a trace")
			}
			if err != nil {
				out.fail("hop probe: %v", err)
				continue
			}
			if base == env.nodeURL {
				direct = append(direct, lat)
				wire = append(wire, lat-resp.trace.TotalMillis)
			} else {
				viaRouter = append(viaRouter, lat)
			}
		}
	}
	m["fleet.hop_ms"] = median(viaRouter) - median(direct)
	m["serve.wire_ms"] = median(wire)
	out.note("serve-mix traced: open loop %d ops at %d/s (%d responses ran a solve, %d looked up); %d untraced and %d traced closed-loop cycles; %d hop probes",
		len(open), openLoopRate, len(solve), len(lookup), len(cycles[0]), len(cycles[1]), hopProbes)
	return nil
}
