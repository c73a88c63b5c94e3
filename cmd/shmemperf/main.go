// Command shmemperf reproduces Fig 9 of the paper: latency and
// throughput of the OpenSHMEM Put and Get operations over the switchless
// ring, for {DMA, memcpy} x {1 hop, 2 hops} and request sizes 1KB-512KB.
//
// Usage:
//
//	shmemperf [-op put|get|both] [-metric latency|throughput|both] [-fabric KIND] [-csv] [-j N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	op := flag.String("op", "both", "operation to measure: put, get or both")
	metric := flag.String("metric", "both", "metric to report: latency, throughput or both")
	profile := flag.String("profile", "gen3x8", "platform profile (see model.Names)")
	fabricName := flag.String("fabric", "ntb-ring", "fabric backend to measure over: ntb-ring, ntb-pair, pcie-switch, or cxl")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	j := flag.Int("j", runtime.GOMAXPROCS(0), "worker count: independent simulation worlds run in parallel")
	flag.Parse()
	bench.SetParallelism(*j)

	kind, err := fabric.ParseKind(*fabricName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemperf: -fabric:", err)
		os.Exit(2)
	}
	if kind == fabric.KindNTBPair {
		fmt.Fprintln(os.Stderr, "shmemperf: -fabric=ntb-pair: Fig 9 sweeps a 3-host world; the pair fabric joins exactly 2")
		os.Exit(2)
	}
	bench.SetFabric(kind)

	par, err := model.Profile(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemperf:", err)
		os.Exit(1)
	}
	figs := bench.RunFig9(par) // a: put lat, b: get lat, c: put tput, d: get tput

	want := func(f *bench.Figure) bool {
		lower := strings.ToLower(f.Title)
		if *op != "both" && !strings.Contains(lower, *op+" ") {
			return false
		}
		if *metric != "both" && !strings.Contains(lower, *metric) {
			return false
		}
		return true
	}
	printed := 0
	for _, f := range figs {
		if !want(f) {
			continue
		}
		printed++
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Println(f.Table())
		}
	}
	if printed == 0 {
		fmt.Fprintf(os.Stderr, "shmemperf: no figure matches -op %q -metric %q\n", *op, *metric)
		os.Exit(1)
	}
	if kind != fabric.KindNTBRing {
		// The shape checks encode ring facts (hop sensitivity, relay
		// costs); on single-hop fabrics they are meaningless.
		return
	}
	if bad := bench.CheckFig9Shapes(figs); len(bad) != 0 {
		fmt.Fprintln(os.Stderr, "shmemperf: WARNING, paper-shape checks failed:")
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "  -", b)
		}
		os.Exit(2)
	}
}
