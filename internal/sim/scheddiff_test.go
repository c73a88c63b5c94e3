package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Whole-simulator scheduler differential: a seeded multi-process
// workload must produce the identical dispatch trace — which process
// ran, at what virtual time, in what order — on the Simulator (ladder
// queue plus same-instant ready FIFO) and on a reference loop that
// keeps every pending wake in one eventHeap ordered by (t, seq). This
// is the whole-simulator complement to the queue-level property tests
// in ladder_test.go.

type dispatchEntry struct {
	proc int
	step int
	now  Time
}

// sleepDraw returns a process's next sleep. Sleeps mix zero
// (same-timestamp ties through the ready FIFO), short, and long
// horizons so events cross every queue tier. Short sleeps come in
// 25 ns steps, so wakes of different processes often coincide in the
// queue and meet ready-FIFO events at the same instant.
func sleepDraw(rng *rand.Rand) Duration {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 25 * Duration(rng.Int63n(4))
	case 2:
		return Duration(rng.Int63n(50_000))
	default:
		return Duration(rng.Int63n(10_000_000))
	}
}

func procRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)*7919))
}

// simTrace runs nProcs processes of steps seeded sleeps on a Simulator
// and returns the dispatch trace. With reset set, the workload runs
// once, the simulator is Reset, and the trace of the identical rerun is
// returned instead.
func simTrace(seed int64, nProcs, steps int, reset bool) []dispatchEntry {
	s := New()
	var tr []dispatchEntry
	spawn := func() {
		for i := 0; i < nProcs; i++ {
			i := i
			rng := procRNG(seed, i)
			s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < steps; step++ {
					p.Sleep(sleepDraw(rng))
					tr = append(tr, dispatchEntry{i, step, p.Now()})
				}
			})
		}
	}
	spawn()
	if err := s.Run(); err != nil {
		panic(err)
	}
	if reset {
		s.Reset()
		tr = tr[:0]
		spawn()
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	s.Shutdown()
	return tr
}

// heapTrace is the reference: the same workload as simTrace, driven by
// a plain (t, seq) eventHeap. Each pending event is one process's next
// dispatch; event.targ carries the process index.
func heapTrace(seed int64, nProcs, steps int) []dispatchEntry {
	var h eventHeap
	var seq uint64
	push := func(t Time, i int) {
		seq++
		h.push(event{t: t, seq: seq, targ: uint64(i)})
	}
	rngs := make([]*rand.Rand, nProcs)
	next := make([]int, nProcs) // step each process records on its next wake
	for i := range rngs {
		rngs[i] = procRNG(seed, i)
		push(0, i) // spawn: the body starts at time zero
	}
	var tr []dispatchEntry
	started := make([]bool, nProcs)
	for h.Len() > 0 {
		ev := h.pop()
		i := int(ev.targ)
		if started[i] {
			tr = append(tr, dispatchEntry{i, next[i], ev.t})
			next[i]++
		}
		started[i] = true
		if next[i] < steps {
			push(ev.t.Add(sleepDraw(rngs[i])), i)
		}
	}
	return tr
}

func diffTraces(t *testing.T, label string, want, got []dispatchEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: dispatch %d diverged: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

func TestSchedulersDispatchIdentically(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		diffTraces(t, fmt.Sprintf("seed %d simulator-vs-heap", seed),
			heapTrace(seed, 12, 400), simTrace(seed, 12, 400, false))
	}
}

func TestSchedulerResetRerunEquivalence(t *testing.T) {
	diffTraces(t, "reset-rerun-vs-heap", heapTrace(42, 8, 300), simTrace(42, 8, 300, true))
}
