package main

import (
	ntbshmem "repro"
	"repro/internal/core"
)

// expectation is a simulated end time and summed core.Stats recorded
// from this repository's model; a pure host-speed change must reproduce
// them exactly. A change that moves the model updates them here.
type expectation struct {
	end   ntbshmem.Time
	stats core.Stats
}

// ringScaleExpected is keyed by ring size. The payload bytes depend on
// the seed; the timeline and counters do not.
var ringScaleExpected = map[int]expectation{
	256: {560366044, core.Stats{Puts: 1024, PutBytes: 4194304, ChunksSent: 1024,
		Barriers: 1536, Interrupts: 4096}},
}

// putGetMixStats is keyed by ring size: the plan fixes every slot's
// size and, summed over PEs, its distance, so the counters are the same
// for every seed.
var putGetMixStats = map[int]core.Stats{
	32: {Puts: 128, Gets: 96, PutBytes: 11042816, GetBytes: 5373952, ChunksSent: 736,
		ChunksForwarded: 20565, AMOs: 256, Barriers: 96, Interrupts: 21621},
}

// putGetMixEnd holds the 32-PE simulated end time for the seeds the
// benchmark was tuned on. Any other seed's end time is checked against
// its own fresh-world warm-up instead: every reset rep must reproduce it.
var putGetMixEnd = map[int64]ntbshmem.Time{
	1: 158256407, 2: 157038548, 3: 160302500, 4: 164406377, 5: 163120901,
	6: 158112417, 7: 158278458, 8: 159664166, 9: 168874013, 10: 162259550,
}
