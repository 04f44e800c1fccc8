// Command e2ebench is the repository's end-to-end benchmark. It runs one of
// three workloads over the whole solve path — SCB1 decode (scdisk), the pass
// engine, the algorithms, and the serve/router path — checks every output,
// and prints its metrics:
//
//   - offline-round: the paper's iterSetCover and every consumer of the
//     in-memory greedy, where time goes to between-pass offline solves;
//   - pass-round: the pass-heavy streaming baselines and the primal-dual,
//     where time goes to engine passes;
//   - serve-mix: a fleet.Router in front of one serve.Server over loopback,
//     driven by a seeded mix of cache hits, cold solves, NDJSON streams and
//     mutations.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload offline-round --seed 1 --seconds 35 --trace 0
//
// Every input is generated from --seed. With --trace 0 the run is untraced
// and reports the end-to-end metrics; with --trace 1 it attaches tracing
// from outside the program (engine tracers, an offline-solver timing
// wrapper, "trace":true requests, /metrics scrapes) and reports the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. The command exits
// 1 when any op failed or any output was wrong. NOTES.md defines each
// metric and records the predictions the workloads were chosen to test.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the measured phases may run
	trace    bool
	dir      string // scratch directory for generated inputs, removed at exit
}

// outcome is what a workload reports: op counts, metric values by name, and
// human-readable summary lines (sample counts, checks).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records one failed op with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note("FAILED: "+format, args...)
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"offline-round": offlineRound,
	"pass-round":    passRound,
	"serve-mix":     serveMix,
}

// metricJSON and report are the last-line schema.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "offline-round, pass-round or serve-mix")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", 35, "how long the measured phases run")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload offline-round|pass-round|serve-mix, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Generated inputs live in the working directory (the checkout), next to
	// the build output, and are removed at exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "e2ebench-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	cfg := config{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: dir,
	}
	steal0, total0, stealOK := cpuSteal()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	// Steal is CPU time the hypervisor gave to other guests: a run with a
	// high share measured a slower machine, not a slower program.
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		out.metrics["host.steal_frac"] = (steal1 - steal0) / (total1 - total0)
		out.note("host steal: %.1f%% of CPU time during the run", 100*out.metrics["host.steal_frac"])
	}
	names := endToEndMetrics
	if cfg.trace {
		names = perLayerMetrics()
	}
	rep := report{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricJSON, len(names))}
	for _, m := range names {
		v := out.metrics[m.name] // absent: the workload does not run the layer
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s is %v\n", m.name, v)
			return 2
		}
		rep.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if rep.Attempted < 1 {
		rep.Correct = false
		out.note("FAILED: no op completed")
	}

	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", m.name, rep.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(stdout, "%s: %d ops attempted, %d failed (%.2f%%)\n", cfg.workload,
		rep.Attempted, rep.Failed, 100*float64(rep.Failed)/math.Max(1, float64(rep.Attempted)))
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload of a --trace 0 run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"round_p50_s", "s"},
	{"cover_cost", "cost"},
	{"passes", "passes"},
	{"space_words", "words"},
	{"alloc_mb_per_op", "MB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"req_per_s", "1/s"},
}

// Algorithm and request-class names that per-layer metric names are built
// from, in report order.
var (
	offlineAlgos = []string{"iter", "iter_w", "dimv14", "greedy1", "dyn", "geom"}
	passAlgos    = []string{"greedyn", "threshold", "sg09", "er14", "cw16", "pd"}
	mixClasses   = []string{"mem_hit", "disk_hit", "cold", "coalesced", "stream", "mutate"}
)

// perLayerMetrics lists every metric of a --trace 1 run. A workload that
// does not exercise a layer reports 0 for its metrics.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"scdisk.open_ms", "ms"},
		{"scdisk.digest_ms", "ms"},
		{"scdisk.scan_ms", "ms"},
		{"scdisk.scan_mb_per_s", "MB/s"},
		{"scdisk.pool_locks_per_pass", "count"},
		{"engine.passes", "passes"},
		{"engine.pass_ms", "ms"},
		{"engine.observe_ms", "ms"},
		{"engine.segmented_frac", "frac"},
		{"engine.bytes", "bytes"},
		{"engine.w1_round_ms", "ms"},
	}
	for _, a := range append(append([]string{}, offlineAlgos...), passAlgos...) {
		defs = append(defs,
			metricDef{"algo." + a + ".ms", "ms"},
			metricDef{"algo." + a + ".between_ms", "ms"},
			metricDef{"algo." + a + ".passes", "passes"},
			metricDef{"algo." + a + ".space_words", "words"})
	}
	defs = append(defs,
		metricDef{"offline.solve_ms", "ms"},
		metricDef{"offline.calls", "count"},
		metricDef{"offline.sub_sets", "count"},
		metricDef{"offline.iter_frac", "frac"})
	for _, p := range []string{"queue", "lookup", "checkout", "solve"} {
		defs = append(defs,
			metricDef{"serve." + p + "_p50_ms", "ms"},
			metricDef{"serve." + p + "_p99_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"serve.wire_ms", "ms"},
		metricDef{"serve.mem_hit_frac", "frac"},
		metricDef{"serve.disk_hit_frac", "frac"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"})
	for _, c := range mixClasses {
		defs = append(defs,
			metricDef{"class." + c + ".p50_ms", "ms"},
			metricDef{"class." + c + ".p90_ms", "ms"},
			metricDef{"class." + c + ".p99_ms", "ms"})
	}
	return append(defs,
		metricDef{"fleet.hop_ms", "ms"},
		metricDef{"fleet.attempts_per_req", "count"},
		metricDef{"fleet.retries", "count"},
		metricDef{"fleet.digest_invalidations", "count"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"host.steal_frac", "frac"},
		metricDef{"gen.late_p99_ms", "ms"})
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]); it
// sorts a copy. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the q-quantile when at least ten samples lie beyond it,
// and 0 (unresolved) otherwise.
func tailQuantile(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf runs fn reps times, each after a garbage collection so earlier
// work's garbage is not charged to it, and returns the median wall time in
// seconds; fn's error aborts.
func medianOf(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// cpuSteal reads the host's cumulative steal and total CPU ticks from
// /proc/stat (Linux guests); ok is false where it is unavailable.
func cpuSteal() (steal, total float64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
