// Command reproduce regenerates every figure of the paper's evaluation
// plus this repository's ablation studies, in one run, in the order the
// paper presents them. Its output is the raw material of EXPERIMENTS.md.
//
// Usage:
//
//	reproduce [-skip-ablations] [-csv] [-j N] [-bench-json FILE]
//	          [-fabric ntb-ring,pcie-switch,cxl]
//
// Engine scaling with ring size is measured by cmd/scaleperf.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/benchparse"
	"repro/internal/fabric"
	"repro/internal/model"
)

// figureMetric is the host-side cost of producing one figure group.
type figureMetric struct {
	Name          string  `json:"name"`
	WallSeconds   float64 `json:"wall_s"`
	Worlds        uint64  `json:"worlds"`
	VirtualEvents uint64  `json:"virtual_events"`
}

// forkABResult is the interleaved fork on/off A/B over the prefix-heavy
// probe workload: the snapshot-fork analogue of PR 3's pool A/B.
type forkABResult struct {
	Points                int     `json:"points"`
	RepsPerMode           int     `json:"reps_per_mode"`
	PrefixRounds          int     `json:"prefix_rounds"`
	PrefixFillBytes       int     `json:"prefix_fill_bytes"`
	MedianWorldsPerSecOff float64 `json:"median_worlds_per_s_off"`
	MedianWorldsPerSecOn  float64 `json:"median_worlds_per_s_on"`
	Speedup               float64 `json:"speedup"`
}

// benchReport is the machine-readable record of a reproduce run, written
// by -bench-json (BENCH.json in CI's bench-smoke target).
type benchReport struct {
	Parallelism int            `json:"parallelism"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	WorldFork   bool           `json:"world_fork"`
	Figures     []figureMetric `json:"figures"`
	// ForkAB is the -fork-ab measurement (nil when skipped).
	ForkAB *forkABResult `json:"fork_ab,omitempty"`
	// Fork records what the snapshot-fork path did during the run.
	Fork struct {
		Forks             uint64 `json:"forks"`
		PrefixBuilds      uint64 `json:"prefix_builds"`
		PrefixEventsSaved uint64 `json:"prefix_events_saved"`
		CowPagesCopied    uint64 `json:"cow_pages_copied"`
	} `json:"fork"`
	Totals struct {
		WallSeconds   float64 `json:"wall_s"`
		Worlds        uint64  `json:"worlds"`
		WorldsPerSec  float64 `json:"worlds_per_s"`
		VirtualEvents uint64  `json:"virtual_events"`
		PoolHits      uint64  `json:"pool_hits"`
		PoolMisses    uint64  `json:"pool_misses"`
	} `json:"totals"`
	// Benchmarks carries `go test -bench -benchmem` results parsed from
	// the -bench-input file (allocs/op for the gated benchmarks).
	Benchmarks []benchparse.Result `json:"benchmarks,omitempty"`
}

func main() {
	skipAblations := flag.Bool("skip-ablations", false, "only the paper's figures")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	outdir := flag.String("outdir", "", "also write one CSV file per figure into this directory")
	paramsFile := flag.String("params", "", "JSON platform profile overlaying the default (see model.SaveParams)")
	par := flag.Int("j", runtime.GOMAXPROCS(0), "worker count: independent simulation worlds run in parallel")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	fork := flag.Bool("fork", true, "fork sweep points from copy-on-write warm-up snapshots instead of replaying the prefix (A/B switch)")
	forkAB := flag.Int("fork-ab", 0, "run an interleaved fork on/off A/B over this many prefix-heavy probe points (0 skips)")
	benchJSON := flag.String("bench-json", "", "write machine-readable run metrics (per-figure wall clock, worlds/s, allocs/op) to this file")
	benchInput := flag.String("bench-input", "", "`go test -bench -benchmem` output to fold into the -bench-json benchmarks section")
	fabricList := flag.String("fabric", "ntb-ring,pcie-switch,cxl", "comma-separated fabric backends for the cross-fabric figure (E6): ntb-ring, ntb-pair, pcie-switch, cxl")
	flag.Parse()
	bench.SetParallelism(*par)
	bench.SetWorldFork(*fork)
	fabKinds, err := parseFabrics(*fabricList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live retention
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
		}()
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	}
	mp := model.Default()
	if *paramsFile != "" {
		if mp, err = model.LoadParams(*paramsFile); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
	}
	emit := func(f *bench.Figure) {
		if *csv {
			fmt.Printf("# %s — %s\n", f.ID, f.Title)
			fmt.Print(f.CSV())
			fmt.Println()
		} else {
			fmt.Println(f.Table())
		}
		if *outdir != "" {
			path := filepath.Join(*outdir, bench.CSVFileName(f.ID))
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
		}
	}

	start := time.Now()
	fmt.Printf("platform profile: PCIe Gen%d x%d, wire %.2f GB/s, DMA engine %.2f GB/s\n",
		mp.Gen, mp.Lanes, mp.EffectiveWireBW()/1e9, mp.DMAEngineBW/1e9)
	onOff := map[bool]string{true: "on", false: "off"}
	fmt.Printf("parallel runner: %d workers (independent worlds only; virtual time is unaffected), snapshot fork %s\n\n",
		bench.Parallelism(), onOff[bench.WorldForkEnabled()])

	report := benchReport{
		Parallelism: bench.Parallelism(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		WorldFork:   bench.WorldForkEnabled(),
	}

	// timed produces one figure group, emits it, and reports the group's
	// wall-clock cost so parallel-runner speedups are visible in the
	// archived output. Worlds and virtual events are deltas of the global
	// bench counters around the group.
	timed := func(name string, produce func() []*bench.Figure) []*bench.Figure {
		w0, e0 := bench.WorldsSimulated(), bench.VirtualEvents()
		t0 := time.Now()
		figs := produce()
		elapsed := time.Since(t0)
		for _, f := range figs {
			emit(f)
		}
		fmt.Printf("[%s: %.2fs wall]\n\n", name, elapsed.Seconds())
		report.Figures = append(report.Figures, figureMetric{
			Name:          name,
			WallSeconds:   elapsed.Seconds(),
			Worlds:        bench.WorldsSimulated() - w0,
			VirtualEvents: bench.VirtualEvents() - e0,
		})
		return figs
	}
	one := func(f func() *bench.Figure) func() []*bench.Figure {
		return func() []*bench.Figure { return []*bench.Figure{f()} }
	}

	timed("Fig 8", func() []*bench.Figure { return bench.RunFig8(mp) })
	fig9 := timed("Fig 9", func() []*bench.Figure { return bench.RunFig9(mp) })
	timed("Fig 10", one(func() *bench.Figure { return bench.RunFig10(mp) }))
	// The cross-fabric comparison runs even under -skip-ablations: it is
	// the one figure exercising every Link backend, so the CI smoke run
	// keeps the switch and CXL fabrics covered.
	timed("E6", one(func() *bench.Figure { return bench.RunCrossFabric(mp, fabKinds) }))

	if !*skipAblations {
		timed("A1", one(func() *bench.Figure { return bench.RunAblationBarrierAlgo(mp) }))
		timed("A2", one(func() *bench.Figure { return bench.RunAblationGetChunk(mp) }))
		timed("A3", one(func() *bench.Figure { return bench.RunAblationRingSize(mp) }))
		timed("A4", one(func() *bench.Figure { return bench.RunAblationRouting(mp) }))
		timed("A5", one(func() *bench.Figure { return bench.RunAblationBroadcast(mp) }))
		timed("A6", one(func() *bench.Figure { return bench.RunAblationPipeline(mp) }))
		timed("A7", one(func() *bench.Figure { return bench.RunAblationWakeCost(mp) }))
		timed("E1", one(bench.RunGenerationComparison))
		timed("E2", one(func() *bench.Figure { return bench.RunTwoSidedComparison(mp) }))
		timed("E3", one(func() *bench.Figure { return bench.RunAppKernels(mp) }))
		timed("E5", one(func() *bench.Figure { return bench.RunCollectiveLatency(mp) }))
		fmt.Println(bench.RunBreakdown(mp))
	}

	if *forkAB > 0 {
		report.ForkAB = runForkAB(mp, *forkAB)
		bench.SetWorldFork(*fork) // the A/B toggles the switch; restore the run's setting
	}

	if bad := bench.CheckFig9Shapes(fig9); len(bad) != 0 {
		fmt.Println("PAPER-SHAPE CHECKS FAILED:")
		for _, b := range bad {
			fmt.Println("  -", b)
		}
	} else {
		fmt.Println("paper-shape checks: all passed")
	}
	elapsed := time.Since(start).Seconds()
	worlds := bench.WorldsSimulated()
	hits, misses := bench.WorldPoolStats()
	forks, prefixBuilds, eventsSaved := bench.ForkStats()
	fmt.Printf("simulated %d worlds in %.1f s (%.1f worlds/s, par=%d, pool %d hits / %d misses)\n",
		worlds, elapsed, float64(worlds)/elapsed, bench.Parallelism(), hits, misses)
	fmt.Printf("snapshot fork: %d forks from %d warm-up prefixes (%d virtual events skipped, %d CoW pages copied)\n",
		forks, prefixBuilds, eventsSaved, bench.CowPagesCopied())
	fmt.Println("(all reported numbers are virtual-time measurements; wall times above are host-side cost)")

	if *benchJSON != "" {
		report.Fork.Forks = forks
		report.Fork.PrefixBuilds = prefixBuilds
		report.Fork.PrefixEventsSaved = eventsSaved
		report.Fork.CowPagesCopied = bench.CowPagesCopied()
		report.Totals.WallSeconds = elapsed
		report.Totals.Worlds = worlds
		report.Totals.WorldsPerSec = float64(worlds) / elapsed
		report.Totals.VirtualEvents = bench.VirtualEvents()
		report.Totals.PoolHits = hits
		report.Totals.PoolMisses = misses
		if *benchInput != "" {
			f, err := os.Open(*benchInput)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
			report.Benchmarks, err = benchparse.Parse(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce:", err)
				os.Exit(1)
			}
		}
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
}

// runForkAB measures the headline claim of the snapshot-fork path: on a
// prefix-heavy sweep (every point shares an expensive warm-up, bodies
// diverge), forking the captured prefix beats replaying it. Modes are
// interleaved rep by rep — off, on, off, on, … — so drift in machine
// load lands on both sides, and each mode's worlds/s is summarized by
// its median. All [fork-ab] lines are host-side wall clock; the probe's
// virtual-time results are byte-identical between modes by construction
// (TestForkMatchesReplay holds the equivalence).
func runForkAB(mp *model.Params, points int) *forkABResult {
	const reps = 5
	const rounds, fill = 48, 65536
	res := &forkABResult{Points: points, RepsPerMode: reps, PrefixRounds: rounds, PrefixFillBytes: fill}
	fmt.Printf("[fork-ab] interleaved snapshot-fork A/B: %d probe points per rep (warm-up %d B fill × %d put rounds), %d reps per mode\n",
		points, fill, rounds, reps)
	idx := make([]int, points)
	for i := range idx {
		idx[i] = i
	}
	rep := func(on bool) float64 {
		bench.SetWorldFork(on)
		w0 := bench.WorldsSimulated()
		t0 := time.Now()
		bench.RunPoints(context.Background(), bench.Parallelism(), idx, func(pt int) int {
			bench.ForkProbePoint(mp, 3, rounds, fill, pt)
			return pt
		})
		wall := time.Since(t0).Seconds()
		return float64(bench.WorldsSimulated()-w0) / wall
	}
	var off, on []float64
	for r := 0; r < reps; r++ {
		off = append(off, rep(false))
		on = append(on, rep(true))
		fmt.Printf("[fork-ab] rep %d: fork off %.1f worlds/s, fork on %.1f worlds/s\n", r+1, off[r], on[r])
	}
	sort.Float64s(off)
	sort.Float64s(on)
	res.MedianWorldsPerSecOff = off[len(off)/2]
	res.MedianWorldsPerSecOn = on[len(on)/2]
	res.Speedup = res.MedianWorldsPerSecOn / res.MedianWorldsPerSecOff
	fmt.Printf("[fork-ab] median worlds/s: fork off %.1f, fork on %.1f — speedup %.2fx\n\n",
		res.MedianWorldsPerSecOff, res.MedianWorldsPerSecOn, res.Speedup)
	return res
}

// parseFabrics validates the -fabric list at the command layer so a
// typoed backend name is a flag error naming the valid kinds, not a
// mid-run panic.
func parseFabrics(list string) ([]fabric.Kind, error) {
	var kinds []fabric.Kind
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, err := fabric.ParseKind(tok)
		if err != nil {
			return nil, fmt.Errorf("-fabric: %w", err)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("-fabric: empty backend list")
	}
	return kinds, nil
}
