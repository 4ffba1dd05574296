package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"botscope/internal/experiments"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// report workload re-executes itself for a child phase.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--phase" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		q       float64
		want, Q float64
	}{
		{5000, 0.99, 4950, 0.99},          // 50 samples beyond: p99 as asked
		{1000, 0.99, 990, 0.99},           // exactly 10 beyond
		{200, 0.99, 190, 0.95},            // lowered until 10 remain beyond
		{200, 0.50, 100, 0.50},            // the median is never lowered
		{15, 0.99, 8, 8.0 / 15},           // too few for any tail: the median
		{1, 0.99, 1, 1},                   // a single sample
		{84, 0.99, 74, 74.0 / 84},         // the report's 3 passes x 28 experiments
		{2000, 0.50, 1000, 0.50},          // nearest rank
		{2001, 0.50, 1001, 1001.0 / 2001}, // odd count
	} {
		got := percentile(seq(tc.n), tc.q)
		if got.Value != tc.want || got.N != tc.n || abs(got.Q-tc.Q) > 1e-9 {
			t.Errorf("percentile(n=%d, q=%g) = %+v, want value %g at q %g", tc.n, tc.q, got, tc.want, tc.Q)
		}
	}
	if got := percentile(nil, 0.99); got != (Quantile{}) {
		t.Errorf("percentile(empty) = %+v, want zero", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMetricNames(t *testing.T) {
	ids := experimentIDs()
	if len(ids) != 28 {
		t.Fatalf("%d experiments, want 28", len(ids))
	}
	seen := map[string]string{}
	for _, id := range ids {
		n := experimentMetric(id)
		if prev, dup := seen[n]; dup {
			t.Errorf("experiments %q and %q both map to %s", prev, id, n)
		}
		seen[n] = id
	}
	if got := experimentMetric("Ext: Transfer"); got != "experiments.ext_transfer_s" {
		t.Errorf("experimentMetric(Ext: Transfer) = %s", got)
	}

	all := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !validName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if all[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		all[d.name] = true
	}
	for _, wl := range workloads {
		if !validName.MatchString(wl) {
			t.Errorf("workload name %q is invalid", wl)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists identical to what
// the command prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d = %s, want %s", i, spec.Workloads[i].Name, w)
		}
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	for _, tc := range []struct {
		name                string
		due, prevDone, sent time.Time
		want                time.Duration
	}{
		{"on time", ms(10), ms(5), ms(10), 0},
		{"timer woke late", ms(10), ms(5), ms(13), 3 * time.Millisecond},
		{"queued behind a slow op is not generator lateness", ms(10), ms(40), ms(40), 0},
		{"slow to send after the previous op", ms(10), ms(40), ms(42), 2 * time.Millisecond},
		{"first op", ms(10), time.Time{}, ms(11), time.Millisecond},
	} {
		if got := lateness(tc.due, tc.prevDone, tc.sent); got != tc.want {
			t.Errorf("%s: lateness = %v, want %v", tc.name, got, tc.want)
		}
	}
	s := Sample{Due: ms(10), Sent: ms(13), Done: ms(20), Late: 3 * time.Millisecond}
	if s.Latency() != 7*time.Millisecond || s.Service() != 7*time.Millisecond {
		t.Errorf("latency %v service %v, want 7ms each", s.Latency(), s.Service())
	}
}

// TestWindowed: one bad window does not move the median of per-window
// percentiles, while it dominates the pooled p99.
func TestWindowed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var samples []Sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			due := t0.Add(time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond)
			lat := time.Duration(1+i%10) * time.Millisecond // 1..10 ms
			if w == 2 {
				lat += 200 * time.Millisecond // a stall of the whole window
			}
			samples = append(samples, Sample{Due: due, Sent: due, Done: due.Add(lat)})
		}
	}
	got := windowed(samples, 100, 0.99)
	if got.Value != 9 || got.N != 500 || got.Q != 0.9 {
		t.Errorf("windowed p99 = %+v, want 9 ms at p90 (the ten 10 ms samples beyond) over 500 samples", got)
	}
	if pooled := percentile(latMS(samples), 0.99); pooled.Value < 200 {
		t.Errorf("pooled p99 = %+v; the stalled window should dominate it", pooled)
	}
	if got := windowed(nil, 100, 0.5); got != (Quantile{}) {
		t.Errorf("windowed(empty) = %+v", got)
	}
}

// TestLaneChargesStalls runs a real lane whose first operation stalls: the
// operations queued behind it carry the stall in their latency from due
// time, while the generator itself is not late.
func TestLaneChargesStalls(t *testing.T) {
	const interval = 10 * time.Millisecond
	lane := Lane{Interval: interval, Op: func(i int) error {
		if i == 0 {
			time.Sleep(45 * time.Millisecond)
		}
		return nil
	}}
	start := time.Now().Add(5 * time.Millisecond)
	res := lane.run(start, start.Add(100*time.Millisecond), time.Second)
	if len(res.Samples) != 10 || res.Missed != 0 {
		t.Fatalf("%d samples, %d missed; want 10, 0", len(res.Samples), res.Missed)
	}
	// Op 1 was due at 10ms and could only start at ~45ms.
	if lat := res.Samples[1].Latency(); lat < 30*time.Millisecond {
		t.Errorf("op 1 latency %v does not include the stall", lat)
	}
	for i, s := range res.Samples[1:4] {
		if s.Late > 5*time.Millisecond {
			t.Errorf("op %d counted %v of queueing as generator lateness", i+1, s.Late)
		}
	}
	for i, s := range res.Samples {
		if !s.Due.Equal(start.Add(time.Duration(i) * interval)) {
			t.Errorf("op %d due %v, want on the fixed schedule", i, s.Due.Sub(start))
		}
	}

	// A lane whose backlog outlives the grace period gives up and counts
	// the rest as missed.
	slow := Lane{Interval: interval, Op: func(int) error { time.Sleep(30 * time.Millisecond); return nil }}
	start = time.Now()
	res = slow.run(start, start.Add(100*time.Millisecond), 0)
	if res.Missed == 0 || len(res.Samples)+res.Missed != 10 {
		t.Errorf("overloaded lane: %d sent, %d missed; want 10 in all with some missed", len(res.Samples), res.Missed)
	}
}

// TestTracedSourceConcurrent drives a traced source from two lanes at once,
// as a traced live run does: every call gets its span, and the first
// snapshot after each ingest is the miss.
func TestTracedSourceConcurrent(t *testing.T) {
	ctx := context.Background()
	rec := NewRecorder()
	ts := &tracedSource{inner: analyzerSource{stream.New()}, rec: rec, prefix: "cluster", hitMiss: true}
	start := time.Now()
	out := runLanes(start, start.Add(200*time.Millisecond), time.Second,
		Lane{Interval: 10 * time.Millisecond, Op: func(int) error {
			ts.LiveIngest(ctx, strings.NewReader("")) // the read-only reference refuses; only the span matters
			return nil
		}},
		Lane{Interval: time.Millisecond, Op: func(int) error {
			_, _, err := ts.LiveSnapshot(ctx)
			return err
		}},
	)
	by := byName(rec.Spans())
	ingests, snaps := len(out[0].Samples), len(out[1].Samples)
	if len(by["cluster.ingest"]) != ingests {
		t.Errorf("%d ingest spans for %d ingests", len(by["cluster.ingest"]), ingests)
	}
	hits, misses := len(by["cluster.snapshot_hit"]), len(by["cluster.snapshot_miss"])
	if hits+misses != snaps || misses == 0 || misses > ingests {
		t.Errorf("%d hits + %d misses for %d snapshots after %d ingests", hits, misses, snaps, ingests)
	}
}

// TestReferenceDigest renders the default-seed report from a freshly
// generated in-memory store: the committed reference must match it.
func TestReferenceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size generation skipped in -short mode")
	}
	gen, err := synth.GenerateStore(synth.Config{Seed: datasetSeed, Scale: defaultScale})
	if err != nil {
		t.Fatal(err)
	}
	digest, _, failed := renderReport(experiments.FromStore(gen, defaultScale), nil, 0, nil)
	if len(failed) > 0 {
		t.Fatalf("experiments failed: %v", failed)
	}
	if want := strings.TrimSpace(referenceDigest); digest != want {
		t.Fatalf("in-memory report digest %s, committed reference %s", digest, want)
	}
}

// TestCheckLiveMismatch: a body that differs from the reference analyzer's
// counts as a failure.
func TestCheckLiveMismatch(t *testing.T) {
	fd, err := genFeed(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr, err := bootTier(ctx, wlLiveSingle)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	web := httpTarget(tr.h)
	for _, b := range fd.batches {
		if err := web.ingest(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	var bodies [][]byte
	for _, p := range liveEndpoints {
		body, err := do(ctx, tr.h, "GET", p, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	res := &Result{Correct: true}
	if err := checkLive(fd.batches, bodies, res, io.Discard); err != nil || !res.Correct || res.Failed != 0 {
		t.Fatalf("matching bodies: err %v, result %+v", err, res)
	}
	bodies[3] = bytes.Replace(bodies[3], []byte("1"), []byte("2"), 1)
	if err := checkLive(fd.batches, bodies, res, io.Discard); err != nil || res.Correct || res.Failed != 1 {
		t.Fatalf("tampered body: err %v, result %+v; want one failure", err, res)
	}
	// One batch short of what the tier saw: every cumulative view differs.
	res = &Result{Correct: true}
	if err := checkLive(fd.batches[:1], bodies, res, io.Discard); err != nil || res.Correct {
		t.Fatalf("short reference feed: err %v, result %+v; want failures", err, res)
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the result line: every metric present with its unit, the
// correctness checks passing, exit code 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs skipped in -short mode")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				if raceEnabled && wl != wlReport {
					t.Skip("the race detector slows the tier below the fixed 500/s schedule")
				}
				var out, errb bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "7", "--seconds", "1", "--trace", trace,
					"--scale", "0.05", "--work", t.TempDir()}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestRefusesBadInvocations: an unknown workload or bad flags exit non-zero
// without a result line.
func TestRefusesBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--work", t.TempDir()},
		{"--workload", "report", "--seconds", "0"},
		{"--workload", "report", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if _, err := lastResult(out.Bytes()); err == nil {
			t.Errorf("%v: printed a result line", args)
		}
	}
}
