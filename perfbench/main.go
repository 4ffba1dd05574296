// Command perfbench is botscope's benchmark. It measures three workloads
// — report (snapshot load plus all 28 experiments), live-single and
// live-cluster (open-loop ingest and /api/live/* queries) — and prints
// every metric by name with its unit, then one JSON result line.
//
// Usage:
//
//	perfbench --workload report --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20   # every workload in turn
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with spans around each layer call and prints the
// per-layer metrics, writing the spans under --work. The command exits
// non-zero when any operation or correctness check fails. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"botscope/internal/experiments"
)

// Workload names.
const (
	wlReport      = "report"
	wlLiveSingle  = "live-single"
	wlLiveCluster = "live-cluster"
)

var workloads = []string{wlReport, wlLiveSingle, wlLiveCluster}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics, reported on every workload; README.md
// says what each means where the workload has no literal counterpart.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_peak_rss_mb", "MiB"},
	{"load_s", "s"},
	{"report_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"query_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
}

// perLayer are the traced metrics. A layer a workload does not reach
// reports zero.
func perLayer() []metricDef {
	defs := []metricDef{
		{"synth.generate_s", "s"},
		{"synth.generate_alloc_mb", "MiB"},
		{"synth.generate_gc_frac", "ratio"},
		{"dataset.newstore_s", "s"},
		{"dataset.snapshot_write_s", "s"},
		{"dataset.snapshot_mb", "MiB"},
		{"dataset.snapshot_read_s", "s"},
		{"dataset.indexes_cold_s", "s"},
		{"dataset.indexes_warm_s", "s"},
		{"core.collab_cold_s", "s"},
		{"core.collab_1w_s", "s"},
		{"core.collab_par_s", "s"},
		{"core.dispersion_index_s", "s"},
		{"core.transfer_matrix_s", "s"},
		{"core.blacklist_s", "s"},
		{"core.mitigation_s", "s"},
		{"timeseries.autofit_s", "s"},
		{"timeseries.autofit_calls", "count"},
	}
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{experimentMetric(id), "s"})
	}
	return append(defs,
		metricDef{"experiments.alloc_mb", "MiB"},
		metricDef{"experiments.gc_frac", "ratio"},
		metricDef{"serve.query_service_p50_ms", "ms"},
		metricDef{"serve.query_service_p99_ms", "ms"},
		metricDef{"serve.query_wait_p99_ms", "ms"},
		metricDef{"serve.ingest_service_p99_ms", "ms"},
		metricDef{"serve.query_latency_p99_ms", "ms"},
		metricDef{"serve.ingest_latency_p99_ms", "ms"},
		metricDef{"cluster.snapshot_hit_p50_ms", "ms"},
		metricDef{"cluster.snapshot_hit_ratio", "ratio"},
		metricDef{"cluster.snapshot_miss_p50_ms", "ms"},
		metricDef{"cluster.snapshot_miss_p99_ms", "ms"},
		metricDef{"cluster.ingest_p50_ms", "ms"},
		metricDef{"cluster.ingest_p99_ms", "ms"},
		metricDef{"stream.snapshot_p50_ms", "ms"},
		metricDef{"stream.snapshot_p99_ms", "ms"},
		metricDef{"stream.ingest_p50_ms", "ms"},
		metricDef{"stream.ingest_p99_ms", "ms"},
		metricDef{"dataset.jsonl_decode_ms", "ms"},
		metricDef{"runtime.gc_frac", "ratio"},
		metricDef{"runtime.alloc_mb_per_s", "MiB/s"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// experimentIDs lists the report's experiments in paper order.
func experimentIDs() []string {
	var w experiments.Workload // All only lists method values
	var ids []string
	for _, e := range w.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string  // scratch directory for snapshots and span files
	scale    float64 // report dataset scale (1.0 = paper size)
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg   config
		trace int
		phase = fs.String("phase", "", "internal: run one child-process phase of the report workload")
		snap  = fs.String("snapshot", "", "internal: snapshot path for a child phase")
		ref   = fs.Bool("reference", false, "internal: set-up phase also renders the reference digest")
	)
	fs.StringVar(&cfg.workload, "workload", "", "report, live-single, live-cluster or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.Float64Var(&cfg.scale, "scale", 1, "report dataset scale (1.0 = paper size)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if *phase != "" {
		if err := runPhase(*phase, cfg, *snap, *ref, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: phase %s: %v\n", *phase, err)
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --scale > 0, --trace 0|1")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	names, units := splitDefs(defs)
	res.Metrics = res.Metrics.only(names, units)
	if err := res.write(stdout, cfg.workload, names); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func splitDefs(defs []metricDef) ([]string, map[string]string) {
	names := make([]string, len(defs))
	units := make(map[string]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
		units[d.name] = d.unit
	}
	return names, units
}

// runWorkload measures one workload.
func runWorkload(cfg config, stderr io.Writer) (*Result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
	}
	var (
		res *Result
		err error
	)
	switch cfg.workload {
	case wlReport:
		res, err = runReport(cfg, rec, stderr)
	case wlLiveSingle, wlLiveCluster:
		res, err = runLive(cfg, rec, stderr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, rec.Spans()); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: wrote %d spans to %s\n", len(rec.Spans()), path)
	}
	return res, nil
}

// runAll runs every workload in its own process, passes their output
// through, and ends with one result line whose metrics are prefixed by
// workload name.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	total := &Result{Correct: true, Metrics: Metrics{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	var names []string
	for _, wl := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", wl, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", traceFlag(cfg.trace),
			"--work", cfg.work, "--scale", fmt.Sprint(cfg.scale))
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v (exit: %v)\n", wl, perr, runErr)
			total.Correct = false
			total.Failed++
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, m := range res.Metrics {
			total.Metrics[wl+"."+n] = m
		}
		for _, d := range defs {
			names = append(names, wl+"."+d.name)
		}
	}
	if err := total.write(stdout, "all", names); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !total.Correct || total.Failed > 0 {
		return 1
	}
	return 0
}

func traceFlag(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

// lastResult parses the result line a run ends with.
func lastResult(out []byte) (*Result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res Result
	if len(lines) == 0 || json.Unmarshal(lines[len(lines)-1], &res) != nil {
		return nil, errors.New("no result line")
	}
	return &res, nil
}

// since is the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
