package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"botscope/internal/cluster"
	"botscope/internal/dataset"
	"botscope/internal/serve"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

// The live schedule: two open-loop lanes, one operation in flight each.
const (
	batchRecords   = 256
	ingestInterval = 50 * time.Millisecond // 20 batches/s
	queryInterval  = 2 * time.Millisecond  // 500 queries/s
	warmupBatches  = 40                    // ingested on a fresh tier before its schedule
	roundsPerBlock = 10                    // six-endpoint refreshes after a block's schedule
	// blocks splits a run into fresh tiers measured one after another, so
	// cold starts and report rounds are sampled across the whole run.
	blocks = 4
	// queryWindow is how many query samples (one second's worth) each
	// window holds; query percentiles are the median over windows, so one
	// stall moves a run's p99 only if it recurs.
	queryWindow = 500
	shards      = 2
	// attacksPerScale is roughly how many attacks synth makes per unit of
	// scale; the feed is generated at the scale that covers the run.
	attacksPerScale = 50000
	// maxGenLate is the generator lateness (p99) past which a run is
	// invalid: the schedule, not the system, would be setting latency.
	maxGenLate = 20 * time.Millisecond
)

// liveEndpoints are the six analytics views an operator reads.
var liveEndpoints = []string{
	"/api/live/summary",
	"/api/live/daily",
	"/api/live/intervals",
	"/api/live/durations",
	"/api/live/load",
	"/api/live/collaborations",
}

// feed is a seeded, event-time-ordered attack stream cut into 256-record
// JSONL batches.
type feed struct {
	batches [][]byte
	sha     [sha256.Size]byte
}

// feedBatches is how many batches one block of a run of the given length
// consumes; a traced block splits its schedule into up to three phases,
// each rounding up.
func feedBatches(seconds float64) int {
	perBlock := seconds / blocks * float64(time.Second) / float64(ingestInterval)
	return warmupBatches + int(math.Ceil(perBlock)) + 3 + roundsPerBlock
}

// genFeed generates the workload at the scale that yields n batches.
func genFeed(seed int64, n int) (*feed, error) {
	need := n * batchRecords
	scale := 1.1 * float64(need) / attacksPerScale
	out, err := synth.Generate(synth.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	attacks := out.Attacks
	sort.SliceStable(attacks, func(i, j int) bool { return attacks[i].Start.Before(attacks[j].Start) })
	if len(attacks) < need {
		return nil, fmt.Errorf("scale %.3f made %d attacks, need %d", scale, len(attacks), need)
	}
	f := &feed{}
	h := sha256.New()
	for i := 0; i < n; i++ {
		var b bytes.Buffer
		if err := dataset.WriteJSONL(&b, attacks[i*batchRecords:(i+1)*batchRecords]); err != nil {
			return nil, err
		}
		f.batches = append(f.batches, b.Bytes())
		h.Write(b.Bytes())
	}
	copy(f.sha[:], h.Sum(nil))
	return f, nil
}

// tier is one booted live deployment.
type tier struct {
	h      http.Handler      // the HTTP face under test
	single *serve.Server     // live-single only
	front  *cluster.Frontend // live-cluster only
	close  func()
}

// bootTier starts the deployment a workload measures: the single-process
// botserve server, or a 2-shard loopback cluster behind the live server.
func bootTier(ctx context.Context, workload string) (*tier, error) {
	if workload == wlLiveSingle {
		store, err := dataset.NewStore(nil, nil, nil)
		if err != nil {
			return nil, err
		}
		s := serve.New(store, 1)
		return &tier{h: s, single: s, close: func() { store.Close() }}, nil
	}
	local, err := cluster.StartLocal(ctx, shards, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	h := serve.NewLiveServer(local.Frontend, serve.WithClusterAdmin(local.Frontend))
	return &tier{h: h, front: local.Frontend, close: local.Close}, nil
}

// respWriter is a minimal in-process http.ResponseWriter.
type respWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	keep   bool // keep the body; otherwise discard it
}

func (w *respWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.keep {
		return w.body.Write(b)
	}
	return len(b), nil
}

// do sends one request through h and returns the response body when keep
// is set; any status but 200 is an error.
func do(ctx context.Context, h http.Handler, method, path string, body []byte, keep bool) ([]byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, path, rd)
	if err != nil {
		return nil, err
	}
	w := &respWriter{keep: keep}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d", method, path, w.status)
	}
	return w.body.Bytes(), nil
}

// target is what a lane drives: the HTTP face, or the live source's
// methods directly.
type target struct {
	ingest func(ctx context.Context, body []byte) error
	query  func(ctx context.Context, path string) error
}

func httpTarget(h http.Handler) target {
	return target{
		ingest: func(ctx context.Context, body []byte) error {
			_, err := do(ctx, h, http.MethodPost, "/api/ingest", body, false)
			return err
		},
		query: func(ctx context.Context, path string) error {
			_, err := do(ctx, h, http.MethodGet, path, nil, false)
			return err
		},
	}
}

// directTarget calls LiveIngest/LiveSnapshot without HTTP; a query takes
// one snapshot whatever the path.
func directTarget(src serve.LiveSource) target {
	return target{
		ingest: func(ctx context.Context, body []byte) error {
			n, _, err := src.LiveIngest(ctx, bytes.NewReader(body))
			if err == nil && n != batchRecords {
				err = fmt.Errorf("ingested %d of %d records", n, batchRecords)
			}
			return err
		},
		query: func(ctx context.Context, _ string) error {
			_, _, err := src.LiveSnapshot(ctx)
			return err
		},
	}
}

// tracedSource wraps a live source with spans: prefix.ingest around
// LiveIngest, and prefix.snapshot_miss for the first LiveSnapshot after an
// ingest, prefix.snapshot_hit for the rest (or prefix.snapshot for all
// when hits are not told apart).
type tracedSource struct {
	inner    serve.LiveSource
	rec      *Recorder
	prefix   string
	hitMiss  bool
	pendingW atomic.Bool // an ingest landed since the last snapshot
}

func (t *tracedSource) LiveSnapshot(ctx context.Context) (stream.Snapshot, []int, error) {
	name := t.prefix + ".snapshot"
	if t.hitMiss {
		name += "_hit"
		if t.pendingW.Swap(false) {
			name = t.prefix + ".snapshot_miss"
		}
	}
	sp := t.rec.Start(name, 0)
	defer sp.End()
	return t.inner.LiveSnapshot(ctx)
}

func (t *tracedSource) LiveIngest(ctx context.Context, body io.Reader) (int, int, error) {
	sp := t.rec.Start(t.prefix+".ingest", 0)
	n, total, err := t.inner.LiveIngest(ctx, body)
	sp.End()
	t.pendingW.Store(true)
	return n, total, err
}

// analyzerSource serves a reference analyzer through the live handlers'
// shared formatters.
type analyzerSource struct{ a *stream.Analyzer }

func (s analyzerSource) LiveSnapshot(context.Context) (stream.Snapshot, []int, error) {
	return s.a.Snapshot(), nil, nil
}

func (s analyzerSource) LiveIngest(context.Context, io.Reader) (int, int, error) {
	return 0, 0, errors.New("reference source is read-only")
}

// liveRun is one measured live phase: its feed, tallies and the samples
// gathered across its blocks.
type liveRun struct {
	ctx    context.Context
	cfg    config
	rec    *Recorder
	feed   *feed
	res    *Result
	stderr io.Writer

	loads, rounds  []float64 // load_s and report_s samples, in s
	ingest, query  []Sample  // the untraced HTTP lanes
	late           []float64 // generator lateness, in ms
	baseQ, tracedQ []Sample  // traced run: the query lanes the overhead compares
}

// schedule runs the two lanes against tg for seconds and returns their
// results. Ingest posts the feed's batches from *next on; queries cycle
// the six endpoints.
func (r *liveRun) schedule(tg target, next *int, seconds float64) (ingest, query LaneResult) {
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	out := runLanes(start, end, time.Duration(seconds*float64(time.Second)),
		Lane{Interval: ingestInterval, Op: func(int) error {
			if *next >= len(r.feed.batches) {
				return errors.New("feed exhausted")
			}
			*next++
			return tg.ingest(r.ctx, r.feed.batches[*next-1])
		}},
		Lane{Interval: queryInterval, Op: func(i int) error {
			return tg.query(r.ctx, liveEndpoints[i%len(liveEndpoints)])
		}},
	)
	for _, lr := range out {
		r.res.Attempted += len(lr.Samples) + lr.Missed
		for _, s := range lr.Samples {
			if s.Err != nil {
				r.res.fail(r.stderr, "%v", s.Err)
			}
		}
		if lr.Missed > 0 {
			r.res.fail(r.stderr, "%d operations never sent: the system fell behind the schedule", lr.Missed)
		}
	}
	r.late = append(r.late, lateMS(out...)...)
	return out[0], out[1]
}

// block measures one freshly booted tier: a cold start over the warm-up
// prefix, the schedule for seconds, then report rounds, whose last bodies
// are checked against a reference analyzer.
func (r *liveRun) block(seconds float64) error {
	tr, err := bootTier(r.ctx, r.cfg.workload)
	if err != nil {
		return err
	}
	defer tr.close()
	web := httpTarget(tr.h)

	start := time.Now()
	for b := 0; b < warmupBatches; b++ {
		r.res.Attempted++
		if err := web.ingest(r.ctx, r.feed.batches[b]); err != nil {
			r.res.fail(r.stderr, "warm-up ingest: %v", err)
		}
	}
	r.res.Attempted++
	if err := web.query(r.ctx, liveEndpoints[0]); err != nil {
		r.res.fail(r.stderr, "first query: %v", err)
	}
	r.loads = append(r.loads, since(start))

	next := warmupBatches
	if r.rec == nil {
		ingest, query := r.schedule(web, &next, seconds)
		r.ingest = append(r.ingest, ingest.Samples...)
		r.query = append(r.query, query.Samples...)
	} else {
		r.traced(tr, &next, seconds)
	}

	// The full live report after a batch lands: ingest, then read all six
	// views.
	var bodies [][]byte
	for i := 0; i < roundsPerBlock; i++ {
		if next >= len(r.feed.batches) {
			return errors.New("feed exhausted")
		}
		r.res.Attempted++
		if err := web.ingest(r.ctx, r.feed.batches[next]); err != nil {
			r.res.fail(r.stderr, "report round ingest: %v", err)
		}
		next++
		bodies = bodies[:0]
		start := time.Now()
		for _, p := range liveEndpoints {
			r.res.Attempted++
			body, err := do(r.ctx, tr.h, http.MethodGet, p, nil, true)
			if err != nil {
				r.res.fail(r.stderr, "report round: %v", err)
			}
			bodies = append(bodies, body)
		}
		r.rounds = append(r.rounds, since(start))
	}
	return checkLive(r.feed.batches[:next], bodies, r.res, r.stderr)
}

// traced runs a block's schedule in equal phases. Both workloads first
// run untraced over HTTP, which gives the serve layer's service times.
// live-cluster then runs the same HTTP schedule with the frontend behind a
// traced LiveSource; live-single, whose handlers call the analyzer
// directly, drives Server.LiveIngest/LiveSnapshot untraced and then
// traced. The tracing overhead compares the last two phases.
func (r *liveRun) traced(tr *tier, next *int, seconds float64) {
	phases := 2
	if tr.single != nil {
		phases = 3
	}
	secs := seconds / float64(phases)
	ingest, query := r.schedule(httpTarget(tr.h), next, secs)
	r.ingest = append(r.ingest, ingest.Samples...)
	r.query = append(r.query, query.Samples...)
	if tr.front != nil {
		ts := &tracedSource{inner: tr.front, rec: r.rec, prefix: "cluster", hitMiss: true}
		_, tq := r.schedule(httpTarget(serve.NewLiveServer(ts)), next, secs)
		r.baseQ = append(r.baseQ, query.Samples...)
		r.tracedQ = append(r.tracedQ, tq.Samples...)
		return
	}
	_, bq := r.schedule(directTarget(tr.single), next, secs)
	ts := &tracedSource{inner: tr.single, rec: r.rec, prefix: "stream"}
	_, tq := r.schedule(directTarget(ts), next, secs)
	r.baseQ = append(r.baseQ, bq.Samples...)
	r.tracedQ = append(r.tracedQ, tq.Samples...)
}

// latMS lists the samples' latencies from due time, in ms.
func latMS(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Latency().Seconds() * 1e3
	}
	return out
}

// serviceMS lists the samples' service times, in ms.
func serviceMS(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Service().Seconds() * 1e3
	}
	return out
}

// waitMS lists latency minus service time, in ms.
func waitMS(samples []Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = (s.Latency() - s.Service()).Seconds() * 1e3
	}
	return out
}

// windowed splits samples, in order, into consecutive windows of about
// size samples and returns the median of each window's q-percentile of
// latency in ms. N counts all samples; Q is the percentile a window used.
func windowed(samples []Sample, size int, q float64) Quantile {
	n := len(samples)
	if n == 0 {
		return Quantile{}
	}
	k := max(1, (n+size/2)/size)
	var (
		per  []float64
		used float64
	)
	for i := 0; i < k; i++ {
		p := percentile(latMS(samples[i*n/k:(i+1)*n/k]), q)
		per = append(per, p.Value)
		used = max(used, p.Q)
	}
	return Quantile{Value: median(per), Q: used, N: n}
}

// lateMS pools the generator lateness of all samples, in ms.
func lateMS(lanes ...LaneResult) []float64 {
	var out []float64
	for _, l := range lanes {
		for _, s := range l.Samples {
			out = append(out, s.Late.Seconds()*1e3)
		}
	}
	return out
}

// runLive measures live-single or live-cluster.
func runLive(cfg config, rec *Recorder, stderr io.Writer) (*Result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &Result{Correct: true, Metrics: Metrics{}}
	m := res.Metrics
	nb := feedBatches(cfg.seconds)

	// Set-up: feed generation plus tier boot, setupRuns times; the last
	// feed is kept for the measured phase.
	var (
		setupS, setupRSS []float64
		fd               *feed
	)
	for i := 0; i < setupRuns; i++ {
		prev := fd
		fd = nil
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		start := time.Now()
		sp := rec.Start("synth.generate", 0)
		f, err := genFeed(cfg.seed, nb)
		sp.End()
		if err != nil {
			return nil, err
		}
		t, err := bootTier(ctx, cfg.workload)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, since(start))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		setupRSS = append(setupRSS, rss)
		t.close()
		fd = f
		if prev != nil {
			res.Attempted++
			if prev.sha != fd.sha {
				res.fail(stderr, "set-up %d generated a different feed", i)
			}
		}
	}
	m.set("setup_s", median(setupS), "s")
	m.set("setup_peak_rss_mb", median(setupRSS), "MiB")

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	run := &liveRun{ctx: ctx, cfg: cfg, rec: rec, feed: fd, res: res, stderr: stderr}
	root := rec.Start("live.run", 0)
	for b := 0; b < blocks; b++ {
		if err := run.block(cfg.seconds / blocks); err != nil {
			return nil, err
		}
	}
	rootSpan := root.End()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, "MiB")
	m.set("load_s", median(run.loads), "s")
	m.set("report_s", median(run.rounds), "s")
	if q := percentile(run.late, 0.99); time.Duration(q.Value*float64(time.Millisecond)) > maxGenLate {
		res.fail(stderr, "generator fell behind: lateness p%.4g %.3f ms > %v", 100*q.Q, q.Value, maxGenLate)
	}
	if rec == nil {
		m.setQ("query_p50_ms", windowed(run.query, queryWindow, 0.50), "ms")
		m.setQ("ingest_p50_ms", percentile(latMS(run.ingest), 0.50), "ms")
		return res, nil
	}

	by := byName(rec.Spans())
	synthMetrics(m, by)
	m.setQ("gen.late_p99_ms", percentile(run.late, 0.99), "ms")
	m.set("runtime.gc_frac", gcFrac([]Span{rootSpan}), "ratio")
	m.set("runtime.alloc_mb_per_s", allocMB([]Span{rootSpan})/rootSpan.Seconds(), "MiB/s")
	m.setQ("serve.query_service_p50_ms", percentile(serviceMS(run.query), 0.50), "ms")
	m.setQ("serve.query_service_p99_ms", percentile(serviceMS(run.query), 0.99), "ms")
	m.setQ("serve.query_wait_p99_ms", percentile(waitMS(run.query), 0.99), "ms")
	m.setQ("serve.ingest_service_p99_ms", percentile(serviceMS(run.ingest), 0.99), "ms")
	m.setQ("serve.query_latency_p99_ms", windowed(run.query, queryWindow, 0.99), "ms")
	m.setQ("serve.ingest_latency_p99_ms", percentile(latMS(run.ingest), 0.99), "ms")
	m.set("trace.overhead_pct", 100*(percentile(latMS(run.tracedQ), 0.5).Value/
		percentile(latMS(run.baseQ), 0.5).Value-1), "%")
	for _, n := range []string{"cluster.snapshot_hit", "cluster.snapshot_miss", "cluster.ingest", "stream.snapshot", "stream.ingest"} {
		ms := millis(by[n])
		if len(ms) == 0 {
			continue
		}
		m.setQ(n+"_p50_ms", percentile(ms, 0.50), "ms")
		m.setQ(n+"_p99_ms", percentile(ms, 0.99), "ms")
	}
	if hits, misses := len(by["cluster.snapshot_hit"]), len(by["cluster.snapshot_miss"]); hits+misses > 0 {
		m.set("cluster.snapshot_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	var dec []float64
	for _, b := range fd.batches {
		start := time.Now()
		if err := dataset.DecodeJSONL(bytes.NewReader(b), func(*dataset.Attack) error { return nil }); err != nil {
			return nil, err
		}
		dec = append(dec, since(start)*1e3)
	}
	m.set("dataset.jsonl_decode_ms", median(dec), "ms")
	return res, nil
}

// checkLive feeds a reference analyzer the records the tier was sent and
// compares the six final bodies byte for byte.
func checkLive(batches [][]byte, got [][]byte, res *Result, stderr io.Writer) error {
	ref := stream.New()
	for _, b := range batches {
		if err := dataset.DecodeJSONL(bytes.NewReader(b), ref.Ingest); err != nil {
			return fmt.Errorf("reference ingest: %w", err)
		}
	}
	h := serve.NewLiveServer(analyzerSource{ref})
	for i, p := range liveEndpoints {
		res.Attempted++
		want, err := do(context.Background(), h, http.MethodGet, p, nil, true)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p, err)
		}
		if i >= len(got) || !bytes.Equal(got[i], want) {
			res.fail(stderr, "%s differs from the reference analyzer's body", p)
		}
	}
	return nil
}
