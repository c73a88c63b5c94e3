package bench

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/sim"
)

// The ring-scaling axis. The paper's testbed stops at three hosts; this
// sweep drives the same runtime at 3 → 1024 PEs to measure how the
// simulator itself scales (events/s, worlds/s) as the world grows. The
// workload here is deterministic and wall-clock free — host-side timing
// lives in cmd/scaleperf, the one scaling driver, where wall-clock reads
// are allowed.

// ScalePEs is the default PE-count ladder for the scaling sweep.
func ScalePEs() []int { return []int{3, 16, 64, 256, 1024} }

// scaleRounds is how many neighbour puts each PE issues per world. More
// than one round keeps the inter-barrier phase a meaningful fraction of
// the run.
const scaleRounds = 3

// ScaleWorkload runs one n-PE ring world through the pool: every PE
// allocates a symmetric block, barriers, puts putBytes to its right
// neighbour scaleRounds times (one hop under the paper's rightward
// routing, so total traffic grows linearly with n), and barriers again.
// The world runs in the paper's memcpy mode. The world's virtual events and world count accrue to the package tallies,
// which the cmd layer samples around calls to compute events/s.
func ScaleWorkload(par *model.Params, n, putBytes int) {
	ScaleWorkloadTime(par, n, putBytes)
}

// ScaleWorkloadTime runs the scaling workload and returns PE 0's final
// virtual time, the run-over-run determinism witness cmd/scaleperf
// prints.
func ScaleWorkloadTime(par *model.Params, n, putBytes int) sim.Time {
	var end sim.Time
	label := "scale/n=" + strconv.Itoa(n)
	runRingWorld(label, par, n, core.Options{Mode: driver.ModeCPU}, func(p *sim.Proc, pe *core.PE) {
		sym := pe.MustMalloc(p, putBytes)
		buf := make([]byte, putBytes)
		pe.BarrierAll(p)
		for r := 0; r < scaleRounds; r++ {
			pe.PutBytes(p, (pe.ID()+1)%pe.NumPEs(), sym, buf)
		}
		pe.BarrierAll(p)
		if pe.ID() == 0 {
			end = p.Now()
		}
	})
	return end
}
