package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	ntbshmem "repro"
	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/model"
)

// figureGroup is one figure runner of the paper-figures workload, in the
// order cmd/reproduce runs them.
type figureGroup struct {
	id  string
	run func() []*bench.Figure
}

func figureGroups(mp *model.Params) []figureGroup {
	one := func(f func() *bench.Figure) func() []*bench.Figure {
		return func() []*bench.Figure { return []*bench.Figure{f()} }
	}
	kinds := []fabric.Kind{fabric.KindNTBRing, fabric.KindPCIeSwitch, fabric.KindCXL}
	return []figureGroup{
		{"fig8", func() []*bench.Figure { return bench.RunFig8(mp) }},
		{"fig9", func() []*bench.Figure { return bench.RunFig9(mp) }},
		{"fig10", one(func() *bench.Figure { return bench.RunFig10(mp) })},
		{"e6", one(func() *bench.Figure { return bench.RunCrossFabric(mp, kinds) })},
		{"a1", one(func() *bench.Figure { return bench.RunAblationBarrierAlgo(mp) })},
		{"a2", one(func() *bench.Figure { return bench.RunAblationGetChunk(mp) })},
		{"a3", one(func() *bench.Figure { return bench.RunAblationRingSize(mp) })},
		{"a4", one(func() *bench.Figure { return bench.RunAblationRouting(mp) })},
		{"a5", one(func() *bench.Figure { return bench.RunAblationBroadcast(mp) })},
		{"a6", one(func() *bench.Figure { return bench.RunAblationPipeline(mp) })},
		{"a7", one(func() *bench.Figure { return bench.RunAblationWakeCost(mp) })},
		{"e1", one(bench.RunGenerationComparison)},
		{"e2", one(func() *bench.Figure { return bench.RunTwoSidedComparison(mp) })},
		{"e3", one(func() *bench.Figure { return bench.RunAppKernels(mp) })},
		{"e5", one(func() *bench.Figure { return bench.RunCollectiveLatency(mp) })},
	}
}

// loadGoldens reads every archived figure CSV under dir, keyed by file
// name.
func loadGoldens(dir string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no archived figure CSVs under %s", dir)
	}
	g := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		g[filepath.Base(p)] = string(b)
	}
	return g, nil
}

// checkFigures compares each figure's CSV bytes with its golden; one
// verified unit per figure.
func checkFigures(r *run, rep int, figs []*bench.Figure, goldens map[string]string) {
	for _, f := range figs {
		name := bench.CSVFileName(f.ID)
		want, ok := goldens[name]
		r.check(ok && f.CSV() == want, "rep %d: figure %s differs from results/%s", rep, f.ID, name)
	}
}

// setupFigureWorlds times what a world-pool miss costs the figure sweep:
// NewJob, shmem_init on an empty body, and Reset, once per fabric
// backend at the paper's testbed size (the pair is two hosts).
func setupFigureWorlds(r *run) float64 {
	t0 := time.Now()
	for _, k := range ntbshmem.Fabrics() {
		hosts := 3
		if k == ntbshmem.FabricNTBPair {
			hosts = 2
		}
		job := ntbshmem.NewJob(ntbshmem.Config{Hosts: hosts, Fabric: k})
		err := job.World.RunKeep(func(*ntbshmem.Proc, *ntbshmem.PE) {})
		if err == nil {
			job.World.Reset()
		}
		job.Cluster.ShutdownSim()
		if err != nil {
			r.check(false, "set-up: %s world failed to boot: %v", k, err)
		}
	}
	return time.Since(t0).Seconds()
}

// runFigures is the paper-figures invocation. Each rep drains the world
// pool and snapshot cache (untimed) and then regenerates every figure
// with one worker, as a cold cmd/reproduce run does.
func runFigures(r *run, traced bool) error {
	goldens, err := loadGoldens("results")
	if err != nil {
		return err
	}
	mp := model.Default()
	groups := figureGroups(mp)
	var setups []float64
	for i := 0; i < 25; i++ {
		setups = append(setups, setupFigureWorlds(r))
	}
	ms := newMemSampler()

	type counters struct {
		worlds, hits, misses, forks, builds, saved, events, cow uint64
	}
	read := func() counters {
		hits, misses := bench.WorldPoolStats()
		forks, builds, saved := bench.ForkStats()
		return counters{bench.WorldsSimulated(), hits, misses, forks, builds, saved, bench.VirtualEvents(), bench.CowPagesCopied()}
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }

	// phase runs reps numbered from firstRep until at least minReps reps
	// and budget host seconds are done.
	phase := func(budget float64, firstRep, minReps int) (wall, alloc []float64) {
		start := time.Now()
		for rep := firstRep; ; rep++ {
			bench.DrainWorldPool()
			bench.DrainSnapshots()
			sp := r.begin(fmt.Sprintf("rep %d", rep), -1)
			c0 := read()
			m0 := ms.read()
			t0 := time.Now()
			var figs []*bench.Figure
			for _, g := range groups {
				gs := r.begin("bench.figure."+g.id, sp)
				g0 := time.Now()
				figs = append(figs, g.run()...)
				if r.tracing {
					add("bench.figure_s."+g.id, time.Since(g0).Seconds())
				}
				r.end(gs)
			}
			w := time.Since(t0).Seconds()
			m1 := ms.read()
			c1 := read()
			vs := r.begin("bench.verify", sp)
			checkFigures(r, rep, figs, goldens)
			r.end(vs)
			r.end(sp)
			wall = append(wall, w)
			alloc = append(alloc, float64(m1.allocBytes-m0.allocBytes)/(1<<20))
			if r.tracing {
				add("bench.worlds", float64(c1.worlds-c0.worlds))
				add("bench.pool_hits", float64(c1.hits-c0.hits))
				add("bench.pool_misses", float64(c1.misses-c0.misses))
				add("bench.forks", float64(c1.forks-c0.forks))
				add("bench.prefix_builds", float64(c1.builds-c0.builds))
				add("bench.prefix_events_saved", float64(c1.saved-c0.saved))
				add("sim.events", float64(c1.events-c0.events))
				add("sim.ns_per_event", w*1e9/float64(max(c1.events-c0.events, 1)))
				add("mem.cow_pages", float64(c1.cow-c0.cow))
			}
			if len(wall) >= minReps && time.Since(start).Seconds() >= budget {
				return
			}
		}
	}

	budget := r.seconds
	if traced {
		budget /= 2
	}
	// Two untimed reps first: the first drain frees the previous rep's
	// worlds, and the rep after it pays for the heap settling.
	phase(0, -1, 2)
	wall, alloc := phase(budget, 1, 3)
	r.setE2EDist("wall_s", "s", wall)
	r.setE2EDist("setup_s", "s", setups)
	r.setE2EDist("alloc_mb", "MB", alloc)
	r.setE2E("mem_peak_mb", "MB", memPeakMB(), 1)
	if !traced {
		return nil
	}

	r.tracing = true
	m0 := ms.read()
	twall, _ := phase(r.seconds/2, len(wall)+1, 3)
	m1 := ms.read()
	med := func(name string) float64 { return r.setLayerMedian(name, samples[name]) }
	events := med("sim.events")
	// Every rep starts from a drained pool and snapshot cache, so each
	// is as cold as a fresh process: fresh and per-rep events coincide.
	r.setLayer("sim.events_fresh", "count", events, len(twall))
	med("sim.ns_per_event")
	// The figure runners build their worlds inside internal/bench and
	// expose no per-world hook, so the device, driver, fabric and core
	// counters of the world workloads are not observable here; they
	// read zero on this workload.
	r.zeroLayers("ntb.spad_ops", "ntb.doorbells", "ntb.dma_jobs", "ntb.window_bytes", "driver.chunks",
		"fabric.interrupts", "fabric.chunks_forwarded", "mem.heap_chunks",
		"core.puts", "core.gets", "core.amos", "core.barriers", "core.put_bytes", "core.get_bytes",
		"core.put_virt_us_p50", "core.put_virt_us_p99", "core.get_virt_us_p50", "core.get_virt_us_p99",
		"core.barrier_virt_us_p50", "core.barrier_virt_us_p99", "core.run_s", "core.reset_s")
	med("mem.cow_pages")
	worlds := med("bench.worlds")
	hits := med("bench.pool_hits")
	misses := med("bench.pool_misses")
	forks := med("bench.forks")
	med("bench.prefix_builds")
	med("bench.prefix_events_saved")
	r.setLayer("bench.pool_hit_ratio", "fraction", ratio(hits, hits+misses), len(twall))
	r.setLayer("bench.fork_ratio", "fraction", ratio(forks, worlds), len(twall))
	for _, g := range groups {
		med("bench.figure_s." + g.id)
	}
	setRuntimeMetrics(r, m1.sub(m0), len(twall))
	r.setLayer("trace.overhead_s", "s", median(twall)-median(wall), len(twall))
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
