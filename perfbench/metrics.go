package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
)

// minTail is how many samples a reported percentile must leave above it:
// a p99 over 200 samples would rest on two values, so it is lowered to
// the highest percentile that still has minTail samples beyond it.
const minTail = 10

// Quantile is one percentile read from a sample set.
type Quantile struct {
	Value float64 // the sample at the percentile actually used
	Q     float64 // the percentile actually used, in (0, 1]
	N     int     // samples it was read from
}

// percentile returns the nearest-rank q-quantile of xs, lowered to the
// highest percentile with at least minTail samples beyond it but never
// below the median. xs is not modified. An empty set yields a zero Quantile.
func percentile(xs []float64, q float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) int { return int(math.Ceil(q*float64(n))) - 1 }
	idx := min(rank(q), n-1-minTail)
	idx = max(idx, rank(0.5), 0)
	return Quantile{Value: s[idx], Q: float64(idx+1) / float64(n), N: n}
}

// median is the middle of xs (mean of the two middle values for an even
// count); zero for an empty set. It summarizes repeated measurements of
// one quantity, where percentile summarizes a latency distribution.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// validName is the shape every emitted metric name must have.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

var nonAlnum = regexp.MustCompile(`[^a-z0-9]+`)

// experimentMetric maps an experiment ID to its per-layer metric name:
// lower-cased, each run of other characters folded to one '_'
// ("Ext: Transfer" -> "experiments.ext_transfer_s").
func experimentMetric(id string) string {
	slug := strings.Trim(nonAlnum.ReplaceAllString(strings.ToLower(id), "_"), "_")
	return "experiments." + slug + "_s"
}

// Metric is one named measurement of a run.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note is printed in the human-readable table only (sample counts and
	// the percentile actually used).
	Note string `json:"-"`
}

// Metrics maps metric names to measurements.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// setQ records a latency percentile with its sample count and the
// percentile actually used.
func (m Metrics) setQ(name string, q Quantile, unit string) {
	m[name] = Metric{Value: q.Value, Unit: unit, Note: fmt.Sprintf("p%.4g of n=%d", 100*q.Q, q.N)}
}

// Result is the benchmark's verdict line.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// fail counts a failed operation and reports why on stderr.
func (r *Result) fail(stderr io.Writer, format string, args ...any) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// only keeps the metrics named in names, adding any that the workload
// never measured as zero (a layer the workload does not reach).
func (m Metrics) only(names []string, units map[string]string) Metrics {
	out := make(Metrics, len(names))
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			v = Metric{Unit: units[n], Note: "not reached by this workload"}
		}
		out[n] = v
	}
	return out
}

// write prints the human-readable table, then the result as the last line.
func (r *Result) write(w io.Writer, workload string, names []string) error {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, error_rate %.6g ratio, correct %t\n",
		workload, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", n, m.Value, m.Unit, m.Note)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
