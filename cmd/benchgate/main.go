// Command benchgate enforces the benchmark-regression gate in CI's
// bench-smoke target. It reads `go test -bench -benchmem` output and
// fails (exit 1) if any benchmark named in the committed baseline
// breaks its bounds, or is missing from the input — a silently skipped
// benchmark must not pass the gate.
//
// Usage:
//
//	benchgate -baseline bench_baseline.json [-input bench.out]
//
// The baseline file maps benchmark names (without the -N GOMAXPROCS
// suffix) to either a bare allocs/op ceiling, or an object carrying any
// of allocs/op and B/op ceilings and events/s and forks/s floors (the
// custom metrics benchmarks emit with b.ReportMetric):
//
//	{
//	  "BenchmarkWorldPut1M": 2,
//	  "BenchmarkSimEventThroughput": {"max_allocs_per_op": 11, "min_events_per_s": 100000},
//	  "BenchmarkWorldSpawnTeardown": {"max_bytes_per_op": 262144}
//	}
//
// allocs/op and B/op ceilings are machine-independent up to runtime
// bookkeeping, so they do not flake; events/s floors are wall-clock and
// must be set far below the measured rate (an order of magnitude) to
// absorb loaded CI runners.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/benchparse"
)

func main() {
	baselineFile := flag.String("baseline", "bench_baseline.json", "JSON map of benchmark name -> bounds (allocs/op or a bounds object)")
	input := flag.String("input", "", "benchmark output file (default stdin)")
	flag.Parse()

	raw, err := os.ReadFile(*baselineFile)
	if err != nil {
		fatal(err)
	}
	baseline, err := parseBaseline(raw)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *baselineFile, err))
	}
	if len(baseline) == 0 {
		fatal(fmt.Errorf("%s: empty baseline gates nothing", *baselineFile))
	}

	var r io.Reader = os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := benchparse.Parse(r)
	if err != nil {
		fatal(err)
	}
	byName := make(map[string]benchparse.Result, len(results))
	for _, res := range results {
		byName[res.Name] = res
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		g := baseline[name]
		res, ok := byName[name]
		if !ok {
			fmt.Printf("FAIL %-28s absent from benchmark output (%s)\n", name, g)
			failed = true
			continue
		}
		if g.MaxAllocsPerOp != nil {
			ok = ceiling(name, "allocs/op", res.AllocsPerOp, *g.MaxAllocsPerOp) && ok
		}
		if g.MaxBytesPerOp != nil {
			ok = ceiling(name, "B/op", res.BytesPerOp, *g.MaxBytesPerOp) && ok
		}
		if g.MinEventsPerS != nil {
			ok = floor(name, "events/s", res.Extra, *g.MinEventsPerS) && ok
		}
		if g.MinForksPerS != nil {
			ok = floor(name, "forks/s", res.Extra, *g.MinForksPerS) && ok
		}
		failed = failed || !ok
	}
	if failed {
		fmt.Println("benchgate: benchmark regression — adjust the baseline only with a justifying commit")
		os.Exit(1)
	}
}

// ceiling checks a -benchmem per-op figure (negative when the run did
// not report it) against its limit and prints the verdict.
func ceiling(name, unit string, got, limit int64) bool {
	switch {
	case got < 0:
		fmt.Printf("FAIL %-28s has no %s (run with -benchmem)\n", name, unit)
		return false
	case got > limit:
		fmt.Printf("FAIL %-28s %d %s, limit %d\n", name, got, unit, limit)
		return false
	}
	fmt.Printf("ok   %-28s %d %s (limit %d)\n", name, got, unit, limit)
	return true
}

// floor checks a custom b.ReportMetric rate against its floor and prints
// the verdict.
func floor(name, unit string, extra map[string]float64, limit float64) bool {
	got, has := extra[unit]
	switch {
	case !has:
		fmt.Printf("FAIL %-28s reports no %s metric (floor %.0f)\n", name, unit, limit)
		return false
	case got < limit:
		fmt.Printf("FAIL %-28s %.0f %s, floor %.0f\n", name, got, unit, limit)
		return false
	}
	fmt.Printf("ok   %-28s %.0f %s (floor %.0f)\n", name, got, unit, limit)
	return true
}

// gate is one benchmark's bounds: allocs/op and B/op ceilings and/or
// floors on the custom throughput metrics benchmarks emit with
// b.ReportMetric.
type gate struct {
	MaxAllocsPerOp *int64   `json:"max_allocs_per_op"`
	MaxBytesPerOp  *int64   `json:"max_bytes_per_op"`
	MinEventsPerS  *float64 `json:"min_events_per_s"`
	MinForksPerS   *float64 `json:"min_forks_per_s"`
}

func (g gate) String() string {
	parts := ""
	if g.MaxAllocsPerOp != nil {
		parts = fmt.Sprintf("limit %d allocs/op", *g.MaxAllocsPerOp)
	}
	if g.MaxBytesPerOp != nil {
		if parts != "" {
			parts += ", "
		}
		parts += fmt.Sprintf("limit %d B/op", *g.MaxBytesPerOp)
	}
	if g.MinEventsPerS != nil {
		if parts != "" {
			parts += ", "
		}
		parts += fmt.Sprintf("floor %.0f events/s", *g.MinEventsPerS)
	}
	if g.MinForksPerS != nil {
		if parts != "" {
			parts += ", "
		}
		parts += fmt.Sprintf("floor %.0f forks/s", *g.MinForksPerS)
	}
	if parts == "" {
		return "no bounds"
	}
	return parts
}

// parseBaseline accepts both baseline forms per entry: a bare number is
// an allocs/op ceiling (the original format), an object sets explicit
// bounds. An entry with no bounds at all is a configuration error.
func parseBaseline(raw []byte) (map[string]gate, error) {
	var rough map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rough); err != nil {
		return nil, err
	}
	out := make(map[string]gate, len(rough))
	for name, msg := range rough {
		var limit int64
		if err := json.Unmarshal(msg, &limit); err == nil {
			out[name] = gate{MaxAllocsPerOp: &limit}
			continue
		}
		var g gate
		if err := json.Unmarshal(msg, &g); err != nil {
			return nil, fmt.Errorf("entry %q: want an allocs/op number or a bounds object: %w", name, err)
		}
		if g.MaxAllocsPerOp == nil && g.MaxBytesPerOp == nil && g.MinEventsPerS == nil && g.MinForksPerS == nil {
			return nil, fmt.Errorf("entry %q gates nothing", name)
		}
		out[name] = g
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
