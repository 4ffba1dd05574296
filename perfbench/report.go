package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/synth"
	"botscope/internal/timeseries"
)

// referenceDigest is the rendered-report digest of the report dataset at
// the default scale, committed so a change in any experiment's output
// fails the run. Other scales compute their reference from the generated
// in-memory store during set-up.
//
//go:embed reference/report-seed12-scale1.sha256
var referenceDigest string

const (
	// datasetSeed pins the report's dataset: across generation seeds the
	// report's cost varies several-fold with ARIMA search time (README.md,
	// finding 3), which no per-run median can hide. Seed 12 is one on
	// which that slow search shows. --seed orders the experiments instead.
	datasetSeed  = 12
	defaultScale = 1.0
	// minPasses is the fewest measured report passes a run makes, however
	// short --seconds is.
	minPasses = 3
	// phaseTimeout bounds one child phase.
	phaseTimeout = 150 * time.Second
)

// setupOut is what a report set-up child reports.
type setupOut struct {
	Seconds   float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	SHA256    string  `json:"sha256"` // of the snapshot file written
	Bytes     int64   `json:"bytes"`
	Digest    string  `json:"digest,omitempty"` // reference report digest, when asked
	Spans     []Span  `json:"spans,omitempty"`
}

// passOut is what a measured report pass reports.
type passOut struct {
	LoadS     float64   `json:"load_s"`
	ReportS   float64   `json:"report_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	ExpS      []float64 `json:"exp_s"` // per experiment, paper order
	Digest    string    `json:"digest"`
	Failed    []string  `json:"failed,omitempty"`
	Spans     []Span    `json:"spans,omitempty"`
}

// runPhase runs one child-process phase and prints its JSON outcome.
func runPhase(phase string, cfg config, snapshot string, reference bool, stdout io.Writer) error {
	var rec *Recorder
	if cfg.trace {
		rec = NewRecorder()
	}
	var (
		out any
		err error
	)
	switch phase {
	case "report-setup":
		out, err = reportSetup(cfg, snapshot, reference, rec)
	case "report-pass":
		out, err = reportPass(cfg, snapshot, rec)
	case "report-kernels":
		err = reportKernels(snapshot, rec)
		out = struct {
			Spans []Span `json:"spans"`
		}{rec.Spans()}
	default:
		return fmt.Errorf("unknown phase")
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// reportSetup generates the dataset, builds the store and writes the BSCS
// snapshot: the timed set-up. Hashing the file and rendering the
// reference digest happen after the clock stops.
func reportSetup(cfg config, path string, reference bool, rec *Recorder) (*setupOut, error) {
	start := time.Now()
	sp := rec.Start("synth.generate", 0)
	gen, err := synth.Generate(synth.Config{Seed: datasetSeed, Scale: cfg.scale})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = rec.Start("dataset.newstore", 0)
	store, err := dataset.NewStore(gen.Attacks, gen.Botnets, gen.Bots)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = rec.Start("dataset.snapshot_write", 0)
	err = writeSnapshotFile(path, store)
	sp.End()
	if err != nil {
		return nil, err
	}
	out := &setupOut{Seconds: since(start)}
	if out.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	out.SHA256, out.Bytes = hex.EncodeToString(sum[:]), int64(len(b))
	if reference {
		digest, _, failed := renderReport(experiments.FromStore(store, cfg.scale), nil, 0, nil)
		if len(failed) > 0 {
			return nil, fmt.Errorf("reference render: experiments failed: %s", strings.Join(failed, ", "))
		}
		out.Digest = digest
	}
	out.Spans = rec.Spans()
	return out, nil
}

func writeSnapshotFile(path string, store *dataset.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteSnapshot(f, store); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportPass is what `botreport -snapshot` pays, in a fresh process: load
// the snapshot (mmap) and render all 28 experiments one after another, in
// the order the seed gives.
func reportPass(cfg config, path string, rec *Recorder) (*passOut, error) {
	start := time.Now()
	root := rec.Start("report.pass", 0)
	sp := rec.Start("dataset.snapshot_read", root.ID())
	store, err := readSnapshotFile(path)
	sp.End()
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := &passOut{LoadS: since(start)}
	w := experiments.FromStore(store, cfg.scale)
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(w.All()))
	out.Digest, out.ExpS, out.Failed = renderReport(w, rec, root.ID(), order)
	root.End()
	out.ReportS = since(start)
	if out.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	out.Spans = rec.Spans()
	return out, nil
}

func readSnapshotFile(path string) (*dataset.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadSnapshot(f)
}

// renderReport renders every experiment as botreport prints it, in the
// given order of paper positions (nil: paper order), and returns the
// SHA-256 of the text in paper order, each experiment's seconds in paper
// order and the IDs of experiments that failed.
func renderReport(w *experiments.Workload, rec *Recorder, parent int, order []int) (string, []float64, []string) {
	all := w.All()
	if order == nil {
		order = make([]int, len(all))
		for i := range order {
			order[i] = i
		}
	}
	texts := make([]string, len(all))
	times := make([]float64, len(all))
	var failed []string
	for _, i := range order {
		e := all[i]
		sp := rec.Start(strings.TrimSuffix(experimentMetric(e.ID), "_s"), parent)
		start := time.Now()
		res, err := e.Run()
		times[i] = since(start)
		sp.End()
		if err != nil {
			failed = append(failed, e.ID)
			texts[i] = fmt.Sprintf("== %s: FAILED: %v\n\n", e.ID, err)
			continue
		}
		texts[i] = fmt.Sprintf("== %s — %s\n%s%s\n", res.ID, res.Title, res.Text, res.MetricsText())
	}
	h := sha256.New()
	for _, t := range texts {
		io.WriteString(h, t)
	}
	return hex.EncodeToString(h.Sum(nil)), times, failed
}

// reportKernels times the layer kernels the report leans on, directly
// through each package's public functions, cold calls before warm repeats
// so no span pays for another's lazy builds.
func reportKernels(path string, rec *Recorder) error {
	sp := rec.Start("dataset.snapshot_read", 0)
	store, err := readSnapshotFile(path)
	sp.End()
	if err != nil {
		return err
	}
	defer store.Close()
	indexes := func(name string) {
		sp := rec.Start(name, 0)
		store.Targets()
		store.Families()
		store.TargetIDs()
		store.BotDense()
		sp.End()
	}
	indexes("dataset.indexes_cold")
	indexes("dataset.indexes_warm")

	collab := func(name string, workers int) error {
		sp := rec.Start(name, 0)
		n := len(core.DetectCollaborationsWindowWorkers(store, core.SimultaneousThreshold, core.CollabDurationWindow, workers))
		sp.End()
		if n == 0 {
			return errors.New("no collaborations detected")
		}
		return nil
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"core.collab_cold", 1}, {"core.collab_1w", 1}, {"core.collab_par", runtime.GOMAXPROCS(0)}} {
		if err := collab(c.name, c.workers); err != nil {
			return err
		}
	}

	sp = rec.Start("core.dispersion_index", 0)
	ix := core.NewDispersionIndex(store)
	ix.Precompute(1)
	sp.End()

	// ARIMA order search as PredictDispersion runs it, once per family
	// with enough points.
	fams := ix.ActiveFamilies(40)
	for _, f := range fams {
		series := core.DispersionValues(ix.Series(f))
		sp := rec.Start("timeseries.autofit", 0)
		_, err := timeseries.AutoFit(series[:len(series)/2], 0, 2, 1)
		sp.End()
		if err != nil {
			return fmt.Errorf("autofit %s: %w", f, err)
		}
	}

	// Ext: Transfer's matrix: the first four families with 120+ points.
	tfams := ix.ActiveFamilies(120)
	if len(tfams) > 4 {
		tfams = tfams[:4]
	}
	sp = rec.Start("core.transfer_matrix", 0)
	pairs := ix.TransferMatrix(tfams, timeseries.Order{P: 1}, 120)
	sp.End()
	if len(tfams) > 1 && len(pairs) == 0 {
		return errors.New("transfer matrix is empty")
	}

	// Ext: Defense's blacklist: train on the first half, score the second.
	first, last, ok := store.TimeBounds()
	if !ok {
		return errors.New("empty store")
	}
	split := first.Add(last.Sub(first) / 2)
	sp = rec.Start("core.blacklist", 0)
	bl, err := core.BuildBlacklist(store, time.Time{}, split, 0)
	if err == nil {
		_, err = core.EvaluateBlacklist(store, bl, split, time.Time{})
	}
	sp.End()
	if err != nil {
		return fmt.Errorf("blacklist: %w", err)
	}

	sp = rec.Start("core.mitigation", 0)
	core.PlanMitigation(store, 3)
	sp.End()
	return nil
}

// child runs one phase of the report workload in a fresh process and
// decodes its JSON outcome into out.
func child(cfg config, phase, snapshot string, extra []string, out any, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	args := append([]string{"--phase", phase, "--snapshot", snapshot,
		"--seed", fmt.Sprint(cfg.seed), "--scale", fmt.Sprint(cfg.scale), "--trace", traceFlag(cfg.trace)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", phase, err)
	}
	return json.Unmarshal(b, out)
}

// runReport measures the report workload: setupRuns set-ups, each in its
// own process, then measured passes, each in a fresh process, until
// cfg.seconds have passed (at least minPasses). A traced run alternates
// untraced and traced passes, to measure the tracing overhead, and ends
// with a kernel pass.
func runReport(cfg config, rec *Recorder, stderr io.Writer) (*Result, error) {
	res := &Result{Correct: true, Metrics: Metrics{}}
	m := res.Metrics
	want := strings.TrimSpace(referenceDigest)
	isDefault := cfg.scale == defaultScale

	snapshot := filepath.Join(cfg.work, "report.bscs")
	var setups []*setupOut
	for i := 0; i < setupRuns; i++ {
		path := snapshot
		if i > 0 {
			path = filepath.Join(cfg.work, fmt.Sprintf("report-%d.bscs", i))
		}
		var extra []string
		if i == 0 && !isDefault {
			extra = []string{"--reference"}
		}
		var s setupOut
		res.Attempted++
		if err := child(cfg, "report-setup", path, extra, &s, stderr); err != nil {
			return nil, err
		}
		if i > 0 {
			res.Attempted++
			if s.SHA256 != setups[0].SHA256 {
				res.fail(stderr, "set-up %d wrote a different snapshot (%s vs %s)", i, s.SHA256, setups[0].SHA256)
			}
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		} else if !isDefault {
			want = s.Digest
		}
		setups = append(setups, &s)
	}
	defer os.Remove(snapshot)

	var untraced, traced []*passOut
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; len(untraced)+len(traced) < minPasses || time.Now().Before(deadline); i++ {
		pcfg := cfg
		pcfg.trace = cfg.trace && i%2 == 1
		pcfg.seed = passSeed(cfg.seed, i)
		var p passOut
		if err := child(pcfg, "report-pass", snapshot, nil, &p, stderr); err != nil {
			return nil, err
		}
		res.Attempted += 1 + len(p.ExpS) + 1 // load, experiments, digest check
		for _, id := range p.Failed {
			res.fail(stderr, "experiment %s failed", id)
		}
		if p.Digest != want {
			res.fail(stderr, "report digest %s, want %s", p.Digest, want)
		}
		if pcfg.trace {
			traced = append(traced, &p)
		} else {
			untraced = append(untraced, &p)
		}
	}

	if rec == nil {
		reportEndToEnd(m, setups, untraced)
		return res, nil
	}
	var kern struct {
		Spans []Span `json:"spans"`
	}
	if err := child(cfg, "report-kernels", snapshot, nil, &kern, stderr); err != nil {
		return nil, err
	}
	for _, s := range setups {
		rec.Adopt(s.Spans)
	}
	for _, p := range traced {
		rec.Adopt(p.Spans)
	}
	rec.Adopt(kern.Spans)
	reportPerLayer(m, rec.Spans(), setups, untraced, traced)
	return res, nil
}

// passSeed is the experiment-order seed of a run's i-th pass: each pass
// renders in its own order, so no one order decides which experiments pay
// the shared lazy builds in every pass of a run.
func passSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// reportEndToEnd fills the untraced metrics. The report workload's only
// ingest is each pass's snapshot load, and its queries are the 28
// experiment renders.
func reportEndToEnd(m Metrics, setups []*setupOut, passes []*passOut) {
	var setupS, setupRSS, load, rep, rss, expMS, loadMS []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds)
		setupRSS = append(setupRSS, s.PeakRSSMB)
	}
	for _, p := range passes {
		load = append(load, p.LoadS)
		loadMS = append(loadMS, p.LoadS*1e3)
		rep = append(rep, p.ReportS)
		rss = append(rss, p.PeakRSSMB)
		for _, s := range p.ExpS {
			expMS = append(expMS, s*1e3)
		}
	}
	m.set("setup_s", median(setupS), "s")
	m.set("setup_peak_rss_mb", median(setupRSS), "MiB")
	m.set("load_s", median(load), "s")
	m.set("report_s", median(rep), "s")
	m.set("peak_rss_mb", median(rss), "MiB")
	m.setQ("query_p50_ms", percentile(expMS, 0.50), "ms")
	m.setQ("ingest_p50_ms", percentile(loadMS, 0.50), "ms")
}

// reportPerLayer fills the traced metrics from the adopted spans.
func reportPerLayer(m Metrics, spans []Span, setups []*setupOut, untraced, traced []*passOut) {
	by := byName(spans)
	medS := func(name string) float64 { return median(seconds(by[name])) }
	for _, n := range []string{
		"dataset.newstore", "dataset.snapshot_write", "dataset.snapshot_read",
		"dataset.indexes_cold", "dataset.indexes_warm", "core.collab_cold", "core.collab_1w",
		"core.collab_par", "core.dispersion_index", "core.transfer_matrix", "core.blacklist",
		"core.mitigation",
	} {
		m.set(n+"_s", medS(n), "s")
	}
	synthMetrics(m, by)
	m.set("dataset.snapshot_mb", float64(setups[0].Bytes)/(1<<20), "MiB")

	var fit float64
	for _, s := range by["timeseries.autofit"] {
		fit += s.Seconds()
	}
	m.set("timeseries.autofit_s", fit, "s")
	m.set("timeseries.autofit_calls", float64(len(by["timeseries.autofit"])), "count")

	var expSpans []Span
	for _, id := range experimentIDs() {
		name := experimentMetric(id)
		spans := by[strings.TrimSuffix(name, "_s")]
		m.set(name, median(seconds(spans)), "s")
		expSpans = append(expSpans, spans...)
	}
	m.set("experiments.alloc_mb", allocMB(expSpans)/float64(max(len(traced), 1)), "MiB")
	m.set("experiments.gc_frac", gcFrac(expSpans), "ratio")
	passes := by["report.pass"]
	m.set("runtime.gc_frac", gcFrac(passes), "ratio")
	m.set("runtime.alloc_mb_per_s", allocMB(passes)/sum(seconds(passes)), "MiB/s")

	var u, t []float64
	for _, p := range untraced {
		u = append(u, p.ReportS)
	}
	for _, p := range traced {
		t = append(t, p.ReportS)
	}
	m.set("trace.overhead_pct", 100*(median(t)/median(u)-1), "%")
}

// synthMetrics fills the generator's metrics from its spans.
func synthMetrics(m Metrics, by map[string][]Span) {
	gen := by["synth.generate"]
	var alloc []float64
	for _, s := range gen {
		alloc = append(alloc, float64(s.AllocBytes)/(1<<20))
	}
	m.set("synth.generate_s", median(seconds(gen)), "s")
	m.set("synth.generate_alloc_mb", median(alloc), "MiB")
	m.set("synth.generate_gc_frac", gcFrac(gen), "ratio")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
