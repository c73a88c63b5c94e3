// Command scaleperf measures how the simulation engine scales with ring
// size: it runs the bench package's neighbour-put + barrier workload at
// each requested PE count and reports host-side throughput (events/s,
// worlds/s) per point. It is the repository's one scaling driver. All
// simulated numbers stay deterministic; only the wall-clock denominators
// here vary between runs.
//
// Usage:
//
//	scaleperf [-pes 3,16,64,256,1024] [-reps N] [-put-bytes N]
//	          [-fabric ntb-ring|pcie-switch|cxl]
//
// Each point first runs one unmeasured world, which builds the shape's
// world and warm-up snapshot, so every row counts exactly -reps worlds
// and its wall time excludes construction. The printed "virtual end"
// column is each world's final virtual time; it is identical run over
// run, and only the wall-clock columns may change.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	pesFlag := flag.String("pes", "3,16,64,256,1024", "comma-separated ring sizes to sweep")
	reps := flag.Int("reps", 3, "measured worlds per point (an unmeasured warm-up world per point precedes them)")
	putBytes := flag.Int("put-bytes", 4096, "payload each PE puts to its right neighbour")
	fabricName := flag.String("fabric", "ntb-ring", "fabric backend to scale over: ntb-ring, pcie-switch, or cxl")
	flag.Parse()

	kind, err := fabric.ParseKind(*fabricName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaleperf: -fabric:", err)
		os.Exit(2)
	}
	pes, err := parsePEs(*pesFlag, kind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaleperf:", err)
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "scaleperf: -reps=%d: need at least 1 rep\n", *reps)
		os.Exit(2)
	}
	if *putBytes < 1 {
		fmt.Fprintf(os.Stderr, "scaleperf: -put-bytes=%d: need a positive payload\n", *putBytes)
		os.Exit(2)
	}
	bench.SetFabric(kind)

	par := model.Default()
	fmt.Printf("%s scaling sweep: reps=%d put-bytes=%d gomaxprocs=%d\n\n",
		kind, *reps, *putBytes, runtime.GOMAXPROCS(0))
	fmt.Printf("%6s %8s %16s %15s %9s %14s %10s %10s\n",
		"pes", "worlds", "virtual events", "virtual end", "wall s", "events/s", "worlds/s", "ns/event")
	for _, n := range pes {
		bench.ScaleWorkload(par, n, *putBytes)
		w0, e0 := bench.WorldsSimulated(), bench.VirtualEvents()
		t0 := time.Now()
		var end sim.Time
		for r := 0; r < *reps; r++ {
			end = bench.ScaleWorkloadTime(par, n, *putBytes)
		}
		wall := time.Since(t0).Seconds()
		worlds, events := bench.WorldsSimulated()-w0, bench.VirtualEvents()-e0
		fmt.Printf("%6d %8d %16d %15v %9.3f %14.0f %10.2f %10.1f\n",
			n, worlds, events, end, wall,
			float64(events)/wall, float64(worlds)/wall, wall*1e9/float64(events))
	}
	bench.DrainWorldPool()
}

// parsePEs validates the sweep axis at the command layer: every cluster
// size must be something the selected fabric backend will build,
// reported here with flag context instead of surfacing as a mid-sweep
// panic.
func parsePEs(list string, kind fabric.Kind) ([]int, error) {
	max := fabric.MaxHostsFor(kind)
	var pes []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("-pes: %q is not a cluster size", tok)
		}
		if n < 2 || n > max {
			return nil, fmt.Errorf("-pes: cluster size %d out of range [2, %d] for the %s fabric", n, max, kind)
		}
		pes = append(pes, n)
	}
	if len(pes) == 0 {
		return nil, fmt.Errorf("-pes: empty sweep")
	}
	return pes, nil
}
