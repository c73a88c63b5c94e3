package main

import (
	"fmt"
	"runtime"
	"time"

	ntbshmem "repro"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/ntb"
)

// worldLoad is a workload whose reps run on a world built with
// ntbshmem.NewJob and recycled with World.Reset between reps.
type worldLoad interface {
	config() ntbshmem.Config
	// segments is how many times a run builds a fresh world (timing
	// each build as set-up) and runs timed reps on it.
	segments() int
	// prepare generates the inputs of rep (untimed); body only reads them.
	prepare(rep int)
	body(p *ntbshmem.Proc, pe *ntbshmem.PE)
	// verifyPE checks one PE's end-of-rep output; it reports whether
	// the PE's data is what the inputs of rep imply.
	verifyPE(pe, rep int) (bool, string)
	// expected returns the recorded simulated end time and summed
	// core.Stats for this workload's inputs, each if it was recorded.
	expected() (e expectation, haveEnd, haveStats bool)
	// planStats returns the counters the inputs fix exactly (puts,
	// gets, AMOs and their bytes); other fields are zero.
	planStats() core.Stats
}

// repOut is what one rep's run left behind for verification.
type repOut struct {
	end    ntbshmem.Time
	events uint64
	stats  core.Stats
}

// worldHarness drives a worldLoad through set-up and timed reps.
type worldHarness struct {
	r      *run
	wl     worldLoad
	job    *ntbshmem.Job
	mem    *memSampler
	expEnd ntbshmem.Time
	expSt  core.Stats
	// tamper, when set, runs between a rep's run and its verification;
	// the self-check uses it to corrupt expected values.
	tamper func()

	built       bool   // a world has been built; the expectation is fixed
	freshEvents uint64 // events of the latest fresh-world warm-up rep
	reps        int    // timed reps run so far, for numbering

	// Traced-phase state: device counters of the current rep, op
	// virtual durations and per-rep counter samples by metric name.
	ntbSpad, ntbDoorbells, ntbDMA, ntbWinBytes uint64
	opDur                                      map[string][]float64 // virtual µs by op kind
	samples                                    map[string][]float64
}

// sumStats adds every PE's counters.
func sumStats(w *core.World) core.Stats {
	var t core.Stats
	for _, pe := range w.PEs() {
		s := pe.Stats()
		t.Puts += s.Puts
		t.Gets += s.Gets
		t.PutBytes += s.PutBytes
		t.GetBytes += s.GetBytes
		t.ChunksSent += s.ChunksSent
		t.ChunksForwarded += s.ChunksForwarded
		t.AMOs += s.AMOs
		t.Barriers += s.Barriers
		t.Interrupts += s.Interrupts
	}
	return t
}

// planFields keeps only the counters planStats fixes.
func planFields(s core.Stats) core.Stats {
	return core.Stats{Puts: s.Puts, Gets: s.Gets, PutBytes: s.PutBytes, GetBytes: s.GetBytes, AMOs: s.AMOs}
}

// runRep runs one rep on the harness's world and verifies it. It
// returns host seconds spent in RunKeep and in Reset, and the bytes
// allocated by the two.
func (h *worldHarness) runRep(rep int, parent int) (runS, resetS float64, alloc uint64) {
	r := h.r
	h.wl.prepare(rep)
	sp := r.begin("core.run", parent)
	m0 := h.mem.read()
	t0 := time.Now()
	err := h.job.World.RunKeep(h.wl.body)
	runS = time.Since(t0).Seconds()
	m1 := h.mem.read()
	r.end(sp)
	out := repOut{end: h.job.Now(), events: h.job.Cluster.EventsExecuted(), stats: sumStats(h.job.World)}
	sp = r.begin("bench.verify", parent)
	if h.tamper != nil {
		h.tamper()
	}
	h.verify(rep, out, err)
	if r.tracing {
		h.sampleCounters(out, runS)
	}
	r.end(sp)
	if err != nil {
		// A failed run leaves the world unrecyclable; rebuild it.
		h.job.Cluster.ShutdownSim()
		h.job = ntbshmem.NewJob(h.wl.config())
		h.installHooks()
		return runS, 0, m1.allocBytes - m0.allocBytes
	}
	sp = r.begin("core.reset", parent)
	m2 := h.mem.read()
	t1 := time.Now()
	h.job.World.Reset()
	resetS = time.Since(t1).Seconds()
	m3 := h.mem.read()
	r.end(sp)
	return runS, resetS, (m1.allocBytes - m0.allocBytes) + (m3.allocBytes - m2.allocBytes)
}

// verify counts one unit per PE (its data) plus one for the world (the
// simulated end time and summed counters).
func (h *worldHarness) verify(rep int, out repOut, err error) {
	r := h.r
	if err != nil {
		r.check(false, "rep %d: run failed: %v", rep, err)
		return
	}
	for pe := range h.job.World.PEs() {
		ok, why := h.wl.verifyPE(pe, rep)
		r.check(ok, "rep %d pe %d: %s", rep, pe, why)
	}
	plan := h.wl.planStats()
	r.check(out.end == h.expEnd && out.stats == h.expSt && planFields(out.stats) == plan,
		"rep %d: simulated end %d ns (want %d), stats %+v (want %+v, plan %+v)",
		rep, int64(out.end), int64(h.expEnd), out.stats, h.expSt, plan)
}

// build constructs a fresh world — NewJob, one untimed warm-up rep,
// Reset — replacing any previous one, and returns the host seconds that
// took (verification excluded). The first build's warm-up fixes the
// expected end time and counters when none were recorded for these
// inputs, so every reset rep must reproduce a fresh world exactly.
func (h *worldHarness) build() float64 {
	if h.job != nil {
		h.job.Cluster.ShutdownSim()
		h.job = nil
		runtime.GC()
	}
	h.wl.prepare(0)
	t0 := time.Now()
	h.job = ntbshmem.NewJob(h.wl.config())
	err := h.job.World.RunKeep(h.wl.body)
	built := time.Since(t0).Seconds()
	out := repOut{end: h.job.Now(), events: h.job.Cluster.EventsExecuted(), stats: sumStats(h.job.World)}
	if !h.built {
		h.built = true
		h.expEnd, h.expSt = out.end, out.stats
		e, haveEnd, haveStats := h.wl.expected()
		if haveEnd {
			h.expEnd = e.end
		}
		if haveStats {
			h.expSt = e.stats
		}
	}
	h.verify(0, out, err)
	if err != nil {
		h.job.Cluster.ShutdownSim()
		h.job = ntbshmem.NewJob(h.wl.config())
		return built
	}
	h.freshEvents = out.events
	t1 := time.Now()
	h.job.World.Reset()
	return built + time.Since(t1).Seconds()
}

// runWorldLoad is the whole invocation for a world workload. The run is
// split into segments, each on a freshly built world, so one world's
// memory placement does not decide the result. Each segment times its
// build (setup_s), then timed reps with hooks off; a traced invocation
// adds hooked reps per segment and the layer probes.
func runWorldLoad(r *run, wl worldLoad, traced bool) {
	h := &worldHarness{r: r, wl: wl, mem: newMemSampler()}
	segs := wl.segments()
	budget := r.seconds / float64(segs)
	if traced {
		budget /= 2
		h.samples = map[string][]float64{}
		h.opDur = map[string][]float64{}
	}
	var setupTimes, wall, alloc, twall, truns, tresets []float64
	var gc memPoint
	var cow uint64
	for seg := 0; seg < segs; seg++ {
		setupTimes = append(setupTimes, h.build())
		w, a, _, _ := h.phase(budget)
		wall = append(wall, w...)
		alloc = append(alloc, a...)
		if traced {
			r.tracing = true
			h.installHooks()
			m0, cow0 := h.mem.read(), mem.CowCopies()
			w, _, runs, resets := h.phase(budget)
			m1, cow1 := h.mem.read(), mem.CowCopies()
			h.uninstallHooks()
			r.tracing = false
			twall = append(twall, w...)
			truns = append(truns, runs...)
			tresets = append(tresets, resets...)
			gc = gc.add(m1.sub(m0))
			cow += cow1 - cow0
		}
	}
	h.job.Cluster.ShutdownSim()
	r.setE2EDist("wall_s", "s", wall)
	r.setE2EDist("setup_s", "s", setupTimes)
	r.setE2EDist("alloc_mb", "MB", alloc)
	r.setE2E("mem_peak_mb", "MB", memPeakMB(), 1)
	r.setE2E("sim_time_ms", "ms_sim", float64(h.expEnd)/1e6, len(wall))
	fmt.Printf("[%s] simulated end %d ns, summed core.Stats %+v (%s)\n", r.workload, int64(h.expEnd), h.expSt, h.expSource())
	if traced {
		h.setLayerMetrics(truns, tresets, gc)
		r.setLayer("mem.cow_pages", "count", float64(cow)/float64(len(twall)), len(twall))
		r.setLayer("trace.overhead_s", "s", median(twall)-median(wall), len(twall))
	}
}

// expSource says where the expected end time and counters came from.
func (h *worldHarness) expSource() string {
	src := map[bool]string{true: "recorded", false: "fresh-world warm-up"}
	_, haveEnd, haveStats := h.wl.expected()
	return "end time: " + src[haveEnd] + ", counters: " + src[haveStats]
}

// phase runs timed reps for at least budget host seconds (and at least
// three reps) and returns per-rep wall (RunKeep + Reset), allocated MB,
// and the RunKeep and Reset parts.
func (h *worldHarness) phase(budget float64) (wall, alloc, runs, resets []float64) {
	runtime.GC()
	start := time.Now()
	for {
		h.reps++
		sp := h.r.begin(fmt.Sprintf("rep %d", h.reps), -1)
		runS, resetS, a := h.runRep(h.reps, sp)
		h.r.end(sp)
		wall = append(wall, runS+resetS)
		alloc = append(alloc, float64(a)/(1<<20))
		runs = append(runs, runS)
		resets = append(resets, resetS)
		if len(wall) >= 3 && time.Since(start).Seconds() >= budget {
			return
		}
	}
}

// memPeakMB is the high-water of memory obtained from the OS.
func memPeakMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// ports lists every NTB adapter of the world's hosts.
func (h *worldHarness) ports() []*ntb.Port {
	var ps []*ntb.Port
	for _, host := range h.job.Cluster.Hosts {
		for _, p := range append([]*ntb.Port{host.Left, host.Right}, host.Mesh...) {
			if p != nil {
				ps = append(ps, p)
			}
		}
	}
	return ps
}

// installHooks attaches the public trace hooks: per-op virtual
// durations from core.World.SetOpTrace and device counters from
// ntb.Port.SetTrace. Outside the traced phase it does nothing.
func (h *worldHarness) installHooks() {
	if !h.r.tracing {
		return
	}
	h.job.World.SetOpTrace(func(ev core.OpEvent) {
		h.opDur[ev.Op] = append(h.opDur[ev.Op], ev.Dur.Microseconds())
	})
	for _, p := range h.ports() {
		p.SetTrace(func(ev ntb.TraceEvent) {
			switch ev.Cat {
			case "spad":
				h.ntbSpad++
			case "doorbell":
				if ev.Name == "ring" {
					h.ntbDoorbells++
				}
			case "dma":
				h.ntbDMA++
				h.ntbWinBytes += uint64(ev.Bytes)
			case "pio":
				h.ntbWinBytes += uint64(ev.Bytes)
			}
		})
	}
}

func (h *worldHarness) uninstallHooks() {
	h.job.World.SetOpTrace(nil)
	for _, p := range h.ports() {
		p.SetTrace(nil)
	}
}

// sampleCounters records one traced rep's layer counters, read from
// public state before Reset clears it.
func (h *worldHarness) sampleCounters(out repOut, runS float64) {
	add := func(name string, v float64) { h.samples[name] = append(h.samples[name], v) }
	add("sim.events", float64(out.events))
	add("sim.ns_per_event", runS*1e9/float64(max(out.events, 1)))
	add("core.puts", float64(out.stats.Puts))
	add("core.gets", float64(out.stats.Gets))
	add("core.amos", float64(out.stats.AMOs))
	add("core.barriers", float64(out.stats.Barriers))
	add("core.put_bytes", float64(out.stats.PutBytes))
	add("core.get_bytes", float64(out.stats.GetBytes))
	add("fabric.interrupts", float64(out.stats.Interrupts))
	add("fabric.chunks_forwarded", float64(out.stats.ChunksForwarded))
	var chunks uint64
	heapChunks := 0
	for _, host := range h.job.Cluster.Hosts {
		for _, tx := range append([]*driver.TxChannel{host.TxLeft, host.TxRight}, host.MeshTx...) {
			if tx != nil {
				chunks += tx.Sends()
			}
		}
	}
	for _, pe := range h.job.World.PEs() {
		_, _, c := pe.HeapStats()
		heapChunks += c
	}
	add("driver.chunks", float64(chunks))
	add("mem.heap_chunks", float64(heapChunks))
	add("ntb.spad_ops", float64(h.ntbSpad))
	add("ntb.doorbells", float64(h.ntbDoorbells))
	add("ntb.dma_jobs", float64(h.ntbDMA))
	add("ntb.window_bytes", float64(h.ntbWinBytes))
	h.ntbSpad, h.ntbDoorbells, h.ntbDMA, h.ntbWinBytes = 0, 0, 0, 0
}

// setLayerMetrics reports the traced reps' per-layer metrics; gc is
// the runtime's GC activity over them.
func (h *worldHarness) setLayerMetrics(runs, resets []float64, gc memPoint) {
	r := h.r
	for _, n := range []string{"sim.events", "sim.ns_per_event", "ntb.spad_ops", "ntb.doorbells",
		"ntb.dma_jobs", "ntb.window_bytes", "driver.chunks", "fabric.interrupts",
		"fabric.chunks_forwarded", "mem.heap_chunks", "core.puts", "core.gets", "core.amos",
		"core.barriers", "core.put_bytes", "core.get_bytes"} {
		r.setLayerMedian(n, h.samples[n])
	}
	r.setLayer("sim.events_fresh", "count", float64(h.freshEvents), 1)
	for _, op := range []string{"put", "get", "barrier"} {
		d := h.opDur[op]
		r.setLayer("core."+op+"_virt_us_p50", "us_sim", quantile(d, 0.50), len(d))
		r.setLayer("core."+op+"_virt_us_p99", "us_sim", quantile(d, 0.99), len(d))
	}
	r.setLayerMedian("core.run_s", runs)
	r.setLayerMedian("core.reset_s", resets)
	setRuntimeMetrics(r, gc, len(runs))
}

// setRuntimeMetrics reports GC cost over reps reps; gc holds the deltas.
func setRuntimeMetrics(r *run, gc memPoint, reps int) {
	r.setLayer("runtime.gc_cpu_frac", "fraction", ratio(gc.gcCPU, gc.totalCPU), reps)
	r.setLayer("runtime.gc_cycles", "count", float64(gc.gcCycles)/float64(max(reps, 1)), reps)
}
