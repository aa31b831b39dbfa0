// Command perfbench is the repository's benchmark: it runs one named
// workload in a single process against the library's public entry points
// (service.Router, parallel.RunWall, core.Searcher and the domains'
// Play/Undo/LegalMoves), checks every result it can, and prints every
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1. README.md explains the workloads, the
// metrics and what each layer's metrics should move.
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit and the samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value
	note  string // why the value is what it is, when that is not obvious
}

// endToEnd and perLayer are the metrics of the JSON result line with
// tracing off and on; BENCHMARK.json declares the same names.
var endToEnd = []string{"setup_s", "job_p50_ms", "goodput_jobs_s", "cpu_ms_per_job", "rss_peak_mb"}

var perLayer = []string{
	"job_p99_ms", "rollouts_s",
	"service.admit_us_p50", "service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
	"service.run_ms_p50", "service.run_ms_p99", "service.deliver_us_p50",
	"service.pool_util_mean", "service.shed_ratio", "service.max_rate_jobs_s",
	"parallel.step_ms_mean", "parallel.step_ms_max", "parallel.steps_per_job",
	"parallel.rollouts_per_job", "parallel.median_idle_pct", "parallel.client_idle_pct",
	"parallel.queue_depth_mean", "parallel.queue_depth_max", "parallel.overhead_ms_per_job",
	"mpi.frames_per_job", "mpi.bytes_per_job", "mpi.encode_ns_per_frame",
	"mpi.decode_ns_per_frame", "mpi.frames_s",
	"core.sample_us", "core.nested1_ms", "core.steps_per_playout", "core.playouts_s",
	"morpion.play_undo_ns", "morpion.legal_moves_ns", "samegame.play_undo_ns",
	"samegame.legal_moves_ns", "sudoku.play_undo_ns", "sudoku.legal_moves_ns",
	"go.alloc_bytes_per_job", "go.gc_pause_ms_total",
	"ladder.domain_ms_per_job", "ladder.core_self_ms_per_job",
	"ladder.parallel_self_ms_per_job", "ladder.service_self_ms_per_job",
	"trace.overhead_pct", "trace.children_ms_p50", "trace.job_self_ms_p50",
	"bench.gen_late_ms_p99",
}

// report collects a run's metrics, counts and check failures.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	errs      []error
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name, unit, v, n, note})
}

// addQuantile reports the q-quantile of xs, noting when the sample does not
// support it under the percentile rule.
func (r *report) addQuantile(name, unit string, xs []float64, q float64) {
	v, ok := quantile(xs, q)
	note := ""
	if !ok && q > 0.5 {
		note = fmt.Sprintf("fewer than %d samples beyond p%g: the value is the sample's nearest rank", minBeyond, q*100)
	}
	r.add(name, unit, v, len(xs), note)
}

// fail records check failures; every one counts in failed_ratio.
func (r *report) fail(errs ...error) {
	r.errs = append(r.errs, errs...)
	r.failed += len(errs)
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-small, serve-net or search-morpion")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same job stream")
	seconds := flag.Int("seconds", 40, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	spans := flag.String("spans", "", "where the traced run writes its spans (default under the build directory)")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload of %s, --seconds >= 1 and --trace 0 or 1\n", names())
		os.Exit(2)
	}
	if *spans == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		*spans = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
	}
	budget := time.Duration(*seconds) * time.Second

	rep := &report{}
	var err error
	if *trace == 0 {
		err = runPlain(rep, w, *seed, budget)
	} else {
		err = runTraced(rep, w, *seed, budget, *spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.add("rss_peak_mb", "MB", peakRSSMB(), 1, "")
	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
	}
	if err := rep.print(w, *seed, *trace == 1, declared); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func names() string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}

// print writes the human-readable table of every metric, then the JSON
// result line carrying the declared ones, each of which must be present.
func (r *report) print(w workload, seed uint64, traced bool, declared []string) error {
	fmt.Printf("perfbench %s seed=%d traced=%v go=%s GOMAXPROCS=%d\n",
		w.name, seed, traced, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, e := range r.errs {
		fmt.Printf("CHECK FAILED: %v\n", e)
	}
	sort.SliceStable(r.metrics, func(a, b int) bool { return r.metrics[a].name < r.metrics[b].name })
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-34s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	for _, name := range declared {
		m, ok := byName[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
