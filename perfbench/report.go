package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported number, in the schema BENCHMARK.json uses.
// Samples is how many measurements the value summarises (the median of
// Samples reps, say); it is printed in the human report only.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	// High is the highest percentile with at least ten samples beyond
	// it (0 when there are too few samples), and HighQ that percentile.
	High  float64 `json:"-"`
	HighQ int     `json:"-"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one timed interval of a traced run, in seconds since the run
// started (End is -1 while open). Parent is the index of the enclosing
// span, or -1.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// run carries one workload invocation's settings and everything it
// measures: end-to-end and per-layer metrics in the order they are
// reported, the verification tally, and (when tracing) the spans.
type run struct {
	workload string
	seed     int64
	seconds  float64
	tracing  bool // the traced phase is active: spans and hooks record

	t0        time.Time
	spans     []span
	e2e       []string
	layer     []string
	vals      map[string]metric
	attempted int
	failed    int
	failures  []string
}

func newRun(workload string, seed int64, seconds float64) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, t0: time.Now(), vals: map[string]metric{}}
}

// since returns host seconds elapsed since the run started.
func (r *run) since() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span under parent and returns its index; it records
// nothing (and returns -1) outside the traced phase.
func (r *run) begin(name string, parent int) int {
	if !r.tracing {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.since(), End: -1, Parent: parent})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *run) end(id int) {
	if id >= 0 {
		r.spans[id].End = r.since()
	}
}

// check counts one verified unit and records a failure description when
// it does not hold.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setE2E records an end-to-end metric.
func (r *run) setE2E(name, unit string, v float64, samples int) {
	r.e2e = append(r.e2e, name)
	r.vals[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// setE2EDist records an end-to-end metric as the median of xs, plus the
// high percentile for the human report.
func (r *run) setE2EDist(name, unit string, xs []float64) {
	r.setE2E(name, unit, median(xs), len(xs))
	m := r.vals[name]
	m.HighQ, m.High = highPercentile(xs)
	r.vals[name] = m
}

// setLayer records a per-layer metric.
func (r *run) setLayer(name, unit string, v float64, samples int) {
	r.layer = append(r.layer, name)
	r.vals[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// setLayerMedian records a per-layer metric as the median of xs, in the
// metric's BENCHMARK.json unit, and returns the median.
func (r *run) setLayerMedian(name string, xs []float64) float64 {
	v := median(xs)
	r.setLayer(name, layerUnit(name), v, len(xs))
	return v
}

// printTable writes one aligned block of metrics with unit and sample
// count (and the high percentile where there are enough samples).
func (r *run) printTable(w io.Writer, title string, names []string) {
	fmt.Fprintf(w, "[%s] %s\n", r.workload, title)
	for _, n := range names {
		m := r.vals[n]
		line := fmt.Sprintf("  %-34s %16.6g %-8s n=%d", n, m.Value, m.Unit, m.Samples)
		if m.HighQ > 0 {
			line += fmt.Sprintf("  p%d=%.6g", m.HighQ, m.High)
		}
		fmt.Fprintln(w, line)
	}
}

// writeTrace writes the traced run's spans and per-layer metrics (same
// names and schema as the JSON result) to dir.
func (r *run) writeTrace(dir string, env map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ms := map[string]metric{}
	for _, n := range r.layer {
		ms[n] = r.vals[n]
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Env      map[string]string `json:"env"`
		Spans    []span            `json:"spans"`
		Metrics  map[string]metric `json:"metrics"`
	}{r.workload, r.seed, env, r.spans, ms}
	buf, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", r.workload, r.seed))
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile (0..1) of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// highPercentile picks the highest of p99/p90 that still has at least
// ten samples above it, and returns it with its value; (0, 0) when the
// sample is too small for either.
func highPercentile(xs []float64) (int, float64) {
	for _, q := range []int{99, 90} {
		if float64(len(xs))*(1-float64(q)/100) >= 10 {
			return q, quantile(xs, float64(q)/100)
		}
	}
	return 0, 0
}

// memSampler reads cumulative allocation and GC counters without
// stopping the world.
type memSampler struct{ s []metrics.Sample }

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// memPoint is one reading of the sampler.
type memPoint struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

// sub returns the counter deltas from b to a.
func (a memPoint) sub(b memPoint) memPoint {
	return memPoint{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// add sums two sets of deltas.
func (a memPoint) add(b memPoint) memPoint {
	return memPoint{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (m *memSampler) read() memPoint {
	metrics.Read(m.s)
	return memPoint{
		allocBytes: m.s[0].Value.Uint64(),
		gcCycles:   m.s[1].Value.Uint64(),
		gcCPU:      m.s[2].Value.Float64(),
		totalCPU:   m.s[3].Value.Float64(),
	}
}
