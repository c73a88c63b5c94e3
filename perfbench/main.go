// Command perfbench is the repository benchmark: host time per workload
// rep at identical simulated output, on three workloads, with a traced
// invocation that breaks the cost down by layer. It drives the program
// only through public functions — the ntbshmem facade (NewJob,
// World.RunKeep/Reset), the internal/bench figure runners and each
// layer's exported API — and verifies every rep's simulated output, so a
// faster run can never come from computing something different.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload paper-figures|ring-scale|put-get-mix|all \
//	    --seed N --seconds S --trace 0|1 [--selfcheck]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; with --trace 0 the metrics are
// the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
// ones. Lines before it are a human report with units and sample counts.
// A failed verification exits with status 1 after printing the result.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// e2eMetrics are the end-to-end metrics of BENCHMARK.json, in report
// order. Every workload reports all of them with --trace 0.
var e2eMetrics = []string{"wall_s", "setup_s", "alloc_mb", "mem_peak_mb"}

// layerMetrics are the per-layer metrics of BENCHMARK.json with their
// units. Every workload reports all of them with --trace 1; a layer a
// workload cannot observe reads zero (see the workload's comments).
var layerMetrics = [][2]string{
	{"sim.events", "count"},
	{"sim.events_fresh", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.switch_ns", "ns"},
	{"pcie.flow_ns", "ns"},
	{"ntb.spad_ops", "count"},
	{"ntb.doorbells", "count"},
	{"ntb.dma_jobs", "count"},
	{"ntb.window_bytes", "bytes"},
	{"ntb.spad_ns", "ns"},
	{"ntb.dma_ns", "ns"},
	{"driver.chunks", "count"},
	{"driver.chunk_ns", "ns"},
	{"fabric.interrupts", "count"},
	{"fabric.chunks_forwarded", "count"},
	{"fabric.build_s", "s"},
	{"fabric.msg_ns", "ns"},
	{"mem.heap_chunks", "count"},
	{"mem.cow_pages", "count"},
	{"mem.alloc_ns", "ns"},
	{"mem.fork_ns", "ns"},
	{"core.puts", "count"},
	{"core.gets", "count"},
	{"core.amos", "count"},
	{"core.barriers", "count"},
	{"core.put_bytes", "bytes"},
	{"core.get_bytes", "bytes"},
	{"core.put_virt_us_p50", "us_sim"},
	{"core.put_virt_us_p99", "us_sim"},
	{"core.get_virt_us_p50", "us_sim"},
	{"core.get_virt_us_p99", "us_sim"},
	{"core.barrier_virt_us_p50", "us_sim"},
	{"core.barrier_virt_us_p99", "us_sim"},
	{"core.run_s", "s"},
	{"core.reset_s", "s"},
	{"bench.worlds", "count"},
	{"bench.pool_hits", "count"},
	{"bench.pool_misses", "count"},
	{"bench.pool_hit_ratio", "fraction"},
	{"bench.forks", "count"},
	{"bench.prefix_builds", "count"},
	{"bench.fork_ratio", "fraction"},
	{"bench.prefix_events_saved", "count"},
	{"bench.figure_s.fig8", "s"},
	{"bench.figure_s.fig9", "s"},
	{"bench.figure_s.fig10", "s"},
	{"bench.figure_s.e6", "s"},
	{"bench.figure_s.a1", "s"},
	{"bench.figure_s.a2", "s"},
	{"bench.figure_s.a3", "s"},
	{"bench.figure_s.a4", "s"},
	{"bench.figure_s.a5", "s"},
	{"bench.figure_s.a6", "s"},
	{"bench.figure_s.a7", "s"},
	{"bench.figure_s.e1", "s"},
	{"bench.figure_s.e2", "s"},
	{"bench.figure_s.e3", "s"},
	{"bench.figure_s.e5", "s"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m[0] == name {
			return m[1]
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// zeroLayers reports metrics a workload cannot observe as zero with no
// samples.
func (r *run) zeroLayers(names ...string) {
	for _, n := range names {
		r.setLayer(n, layerUnit(n), 0, 0)
	}
}

// Workload sizes. ring-scale uses the largest ring whose per-PE heap
// chunk and windows fit a few-GB host comfortably.
const (
	ringScalePEs = 256
	putGetMixPEs = 32
)

// maxProcs caps GOMAXPROCS. The simulator runs one process at a time
// and the benchmark one bench worker; a second P carries the concurrent
// GC. On a shared 2-CPU host, one P made ring-scale faster and steadier
// but widened put-get-mix's run-to-run spread, so two stay.
const maxProcs = 2

func main() {
	workload := flag.String("workload", "", "paper-figures, ring-scale, put-get-mix, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds of timed reps per invocation")
	trace := flag.Int("trace", 0, "1 runs the traced invocation and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build", "directory the traced run writes its spans and counters to")
	selfcheck := flag.Bool("selfcheck", false, "instead of measuring, show that corrupted expected values are reported as failures")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	env := pinGlobals()
	if *selfcheck {
		os.Exit(runSelfcheck())
	}

	loads := []string{*workload}
	if *workload == "all" {
		loads = []string{"paper-figures", "ring-scale", "put-get-mix"}
	}
	fmt.Printf("perfbench seed=%d seconds=%g trace=%d env: %s\n", *seed, *seconds, *trace, envLine(env))
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range loads {
		r := newRun(wl, *seed, *seconds)
		if err := runOne(r, *trace == 1); err != nil {
			fatalf("%s: %v", wl, err)
		}
		res := r.result(*trace == 1)
		report(r, *trace == 1)
		if *trace == 1 {
			path, err := r.writeTrace(*traceDir, env)
			if err != nil {
				fatalf("writing trace: %v", err)
			}
			fmt.Printf("[%s] spans and counters written to %s\n", wl, path)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(loads) > 1 {
				k = wl + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(&total)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload invocation.
func runOne(r *run, traced bool) error {
	switch r.workload {
	case "paper-figures":
		if err := runFigures(r, traced); err != nil {
			return err
		}
		if traced {
			r.tracing = true
			runProbes(r, 3)
		}
	case "ring-scale", "put-get-mix":
		var wl worldLoad
		n := ringScalePEs
		if r.workload == "ring-scale" {
			wl = newRingScale(n, r.seed)
		} else {
			n = putGetMixPEs
			wl = newPutGetMix(n, r.seed)
		}
		runWorldLoad(r, wl, traced)
		if traced {
			r.zeroLayers(figureOnlyLayers()...)
			r.tracing = true
			runProbes(r, n)
		}
	default:
		return fmt.Errorf("unknown workload %q (want paper-figures, ring-scale, put-get-mix or all)", r.workload)
	}
	r.setE2E("fail_frac", "fraction", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	return nil
}

// figureOnlyLayers are the bench-layer metrics only paper-figures
// observes; world workloads bypass the bench pool and fork paths.
func figureOnlyLayers() []string {
	var out []string
	for _, m := range layerMetrics {
		if strings.HasPrefix(m[0], "bench.") {
			out = append(out, m[0])
		}
	}
	return out
}

// report prints the human-readable tables and any failures.
func report(r *run, traced bool) {
	fmt.Printf("[%s] seed %d: %d verified units, %d failed\n", r.workload, r.seed, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("[%s] FAIL %s\n", r.workload, f)
	}
	r.printTable(os.Stdout, "end-to-end (host time unless the unit says _sim; untraced reps)", r.e2e)
	if traced {
		r.printTable(os.Stdout, "per-layer (traced reps and probes)", r.layer)
	}
}

// result assembles the JSON result: BENCHMARK.json's end-to-end metrics
// untraced, its per-layer metrics traced. A metric the workload did not
// set is a bug in the benchmark.
func (r *run) result(traced bool) result {
	names := e2eMetrics
	if traced {
		names = nil
		for _, m := range layerMetrics {
			names = append(names, m[0])
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.vals[n]
		if !ok {
			panic(fmt.Sprintf("perfbench: %s did not report %s", r.workload, n))
		}
		res.Metrics[n] = m
	}
	return res
}

// pinGlobals fixes every process-wide setting the measurement depends
// on and returns them for the report: one bench worker, world pool and
// snapshot fork on, the ladder scheduler, one shard, the paper's ring
// fabric, and GOMAXPROCS capped at maxProcs.
func pinGlobals() map[string]string {
	bench.SetParallelism(1)
	bench.SetWorldPool(true)
	bench.SetWorldFork(true)
	bench.SetShards(1)
	bench.SetFabric(fabric.KindNTBRing)
	sim.SetDefaultScheduler(sim.SchedulerLadder)
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	return map[string]string{
		"go":          runtime.Version(),
		"gomaxprocs":  fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":       fmt.Sprint(runtime.NumCPU()),
		"gogc":        os.Getenv("GOGC"),
		"parallelism": fmt.Sprint(bench.Parallelism()),
		"world_pool":  fmt.Sprint(bench.WorldPoolEnabled()),
		"world_fork":  fmt.Sprint(bench.WorldForkEnabled()),
		"scheduler":   sim.DefaultScheduler().String(),
		"shards":      fmt.Sprint(bench.Shards()),
		"fabric":      bench.Fabric().String(),
	}
}

func envLine(env map[string]string) string {
	var keys []string
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, k+"="+env[k])
	}
	return strings.Join(parts, " ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// fillPattern fills b with a pseudo-random stream keyed by (seed,
// stream, a, c, rep): payloads differ per sender, round/op and rep.
func fillPattern(b []byte, seed int64, stream, a, c, rep int) {
	x := mix64(uint64(seed) ^ mix64(uint64(stream)<<56^uint64(a)<<32^uint64(c)<<16^uint64(rep)))
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(b[i:], x^x>>29)
	}
	for ; i < len(b); i++ {
		b[i] = byte(x >> (8 * (i & 7)))
	}
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
