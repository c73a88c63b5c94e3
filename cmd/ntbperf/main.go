// Command ntbperf reproduces Fig 8 of the paper: raw data-transfer rate
// through the PCIe NTB fabric, comparing an independent two-host link
// against all links of the ring transferring simultaneously, over block
// sizes 1KB-512KB.
//
// Usage:
//
//	ntbperf [-hosts N] [-gen G] [-lanes L] [-fabric KIND] [-csv] [-j N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

func main() {
	hosts := flag.Int("hosts", 3, "ring size for the simultaneous-transfer measurement")
	gen := flag.Int("gen", 3, "PCIe generation (1-3)")
	lanes := flag.Int("lanes", 8, "PCIe lane count")
	fabricName := flag.String("fabric", "ntb-ring", "fabric backend: ntb-ring, ntb-pair, pcie-switch, or cxl (non-ring backends run the cross-fabric workload)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	j := flag.Int("j", runtime.GOMAXPROCS(0), "worker count: independent simulation worlds run in parallel")
	flag.Parse()
	bench.SetParallelism(*j)

	kind, err := fabric.ParseKind(*fabricName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntbperf: -fabric:", err)
		os.Exit(2)
	}
	par := model.Default()
	par.Gen, par.Lanes = *gen, *lanes
	if err := par.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ntbperf:", err)
		os.Exit(1)
	}

	if kind != fabric.KindNTBRing {
		// Fig 8's independent/ring split is a ring-topology concept; on
		// the other backends report the cross-fabric contention workload
		// for the one requested kind instead.
		emit(bench.RunCrossFabric(par, []fabric.Kind{kind}), *csv)
		return
	}
	if *hosts == 3 {
		for _, f := range bench.RunFig8(par) {
			emit(f, *csv)
		}
		return
	}
	// Non-paper ring sizes: print per-link and total for the requested n.
	f := customRing(par, *hosts)
	emit(f, *csv)
}

func customRing(par *model.Params, n int) *bench.Figure {
	f := &bench.Figure{
		ID:     "Fig 8 (custom)",
		Title:  fmt.Sprintf("Per-link and total transfer rate, %d-host ring", n),
		XLabel: "Request Size",
		Unit:   "MB/s",
	}
	indep := bench.Series{Label: "Independent"}
	total := bench.Series{Label: "Ring total"}
	perLink := make([]bench.Series, n)
	for i := range perLink {
		perLink[i].Label = fmt.Sprintf("Link %d", i)
	}
	type cell struct {
		indep float64
		rates []float64
	}
	sizes := bench.Sizes()
	cells := bench.RunPoints(context.Background(), bench.Parallelism(), sizes, func(size int) cell {
		return cell{
			indep: bench.Fig8Independent(par, 0, size),
			rates: bench.Fig8Ring(par, n, size),
		}
	})
	for si, size := range sizes {
		indep.Points = append(indep.Points, bench.Point{Size: size, Value: cells[si].indep})
		var sum float64
		for i, r := range cells[si].rates {
			perLink[i].Points = append(perLink[i].Points, bench.Point{Size: size, Value: r})
			sum += r
		}
		total.Points = append(total.Points, bench.Point{Size: size, Value: sum})
	}
	f.Series = append(f.Series, indep)
	f.Series = append(f.Series, perLink...)
	f.Series = append(f.Series, total)
	return f
}

func emit(f *bench.Figure, csv bool) {
	if csv {
		fmt.Print(f.CSV())
	} else {
		fmt.Println(f.Table())
	}
}
