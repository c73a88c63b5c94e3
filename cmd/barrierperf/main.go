// Command barrierperf reproduces Fig 10 of the paper (latency of
// shmem_barrier_all after Puts of varying size) and, with -ablation,
// the barrier-algorithm comparison of DESIGN.md (A1).
//
// Usage:
//
//	barrierperf [-ablation] [-fabric KIND] [-csv] [-j N]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	ablation := flag.Bool("ablation", false, "run the barrier-algorithm ablation instead of Fig 10")
	fabricName := flag.String("fabric", "ntb-ring", "fabric backend to measure over: ntb-ring, pcie-switch, or cxl")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	j := flag.Int("j", runtime.GOMAXPROCS(0), "worker count: independent simulation worlds run in parallel")
	flag.Parse()
	bench.SetParallelism(*j)

	kind, err := fabric.ParseKind(*fabricName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrierperf: -fabric:", err)
		os.Exit(2)
	}
	if kind == fabric.KindNTBPair {
		fmt.Fprintln(os.Stderr, "barrierperf: -fabric=ntb-pair: Fig 10 runs a 3-host world; the pair fabric joins exactly 2")
		os.Exit(2)
	}
	if *ablation && kind != fabric.KindNTBRing {
		fmt.Fprintln(os.Stderr, "barrierperf: -ablation compares the ring's token barrier against dissemination and requires -fabric=ntb-ring")
		os.Exit(2)
	}
	bench.SetFabric(kind)

	par := model.Default()
	var f *bench.Figure
	if *ablation {
		f = bench.RunAblationBarrierAlgo(par)
	} else {
		f = bench.RunFig10(par)
	}
	if *csv {
		fmt.Print(f.CSV())
	} else {
		fmt.Println(f.Table())
	}
}
