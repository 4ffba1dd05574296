package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans are kept in memory and
// written out when the benchmark ends.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder was made
	End    float64 `json:"end_s"`
	// AllocBytes is heap allocation during the span (process-wide, so
	// concurrent work in other goroutines is included).
	AllocBytes uint64 `json:"alloc_bytes"`
	// GCCPU is GC CPU time during the span, in seconds (process-wide).
	GCCPU float64 `json:"gc_cpu_s"`
	// CPU is the CPU capacity the span covered (wall x GOMAXPROCS), so
	// GCCPU/CPU is its GC share.
	CPU float64 `json:"cpu_s"`
}

// Seconds is the span's wall duration.
func (s Span) Seconds() float64 { return s.End - s.Start }

// Recorder collects spans. A nil *Recorder records nothing, so untraced
// runs pass nil and pay only a nil check at each layer boundary.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span // guarded by mu
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// runtimeSample reads the process-wide counters a span diffs.
type runtimeSample struct {
	alloc uint64
	gcCPU float64
}

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// Open is a span in progress.
type Open struct {
	rec    *Recorder
	id     int
	parent int
	name   string
	start  time.Time
	rt     runtimeSample
}

// Start opens a span under parent (0 for a root). On a nil recorder it
// returns nil, and End on a nil *Open is a no-op.
func (r *Recorder) Start(name string, parent int) *Open {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{}) // reserve the id; filled by End
	id := len(r.spans)
	r.mu.Unlock()
	return &Open{rec: r, id: id, parent: parent, name: name, rt: readRuntime(), start: time.Now()}
}

// ID is the span's id, for use as a child's parent (0 on a nil span).
func (o *Open) ID() int {
	if o == nil {
		return 0
	}
	return o.id
}

// End closes the span and returns it.
func (o *Open) End() Span {
	if o == nil {
		return Span{}
	}
	end := time.Now()
	rt := readRuntime()
	r := o.rec
	sp := Span{
		ID: o.id, Parent: o.parent, Name: o.name,
		Start:      o.start.Sub(r.origin).Seconds(),
		End:        end.Sub(r.origin).Seconds(),
		AllocBytes: rt.alloc - o.rt.alloc,
		GCCPU:      rt.gcCPU - o.rt.gcCPU,
		CPU:        end.Sub(o.start).Seconds() * float64(runtime.GOMAXPROCS(0)),
	}
	r.mu.Lock()
	r.spans[o.id-1] = sp
	r.mu.Unlock()
	return sp
}

// Spans returns the recorded spans in id order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Adopt appends spans recorded by a child process, renumbering their ids
// after the ones already held.
func (r *Recorder) Adopt(spans []Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// byName groups closed spans by name.
func byName(spans []Span) map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range spans {
		if s.Name != "" {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}

// seconds lists the durations of spans.
func seconds(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Seconds()
	}
	return out
}

// millis lists the durations of spans in milliseconds.
func millis(spans []Span) []float64 {
	out := seconds(spans)
	for i := range out {
		out[i] *= 1e3
	}
	return out
}

// gcFrac is the GC share of the CPU capacity the spans covered.
func gcFrac(spans []Span) float64 {
	var gc, cpu float64
	for _, s := range spans {
		gc += s.GCCPU
		cpu += s.CPU
	}
	if cpu <= 0 {
		return 0
	}
	return gc / cpu
}

// allocMB sums the spans' heap allocation in MiB.
func allocMB(spans []Span) float64 {
	var b uint64
	for _, s := range spans {
		b += s.AllocBytes
	}
	return float64(b) / (1 << 20)
}

// writeSpans writes spans as one JSON document to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
