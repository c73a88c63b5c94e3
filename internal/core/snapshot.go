package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

// WorldSnapshot is a frozen image of a quiescent world at an arbitrary
// virtual time: per-PE runtime state (symmetric heap via copy-on-write
// pages, barrier/tag/match-table cursors, pipe cursors, stats) plus the
// cluster's device image and kernel clock. A snapshot is immutable;
// any number of worlds of the same shape can Fork from it, and forked
// children diverge without disturbing it or each other.
type WorldSnapshot struct {
	opts    Options
	n       int
	pes     []peSnapshot
	cluster *fabric.ClusterSnapshot
	events  uint64 // virtual events the capturing run executed — the replay cost a fork saves
}

// Events reports how many virtual events the run that produced the
// snapshot executed: the per-fork saving the bench layer accounts.
func (s *WorldSnapshot) Events() uint64 { return s.events }

// Time returns the virtual time the snapshot was captured at.
func (s *WorldSnapshot) Time() sim.Time { return s.cluster.Time() }

// peSnapshot captures one PE's runtime state; link is the opaque
// per-fabric capture (pipe cursors and fabric counters on the ring,
// counters elsewhere).
type peSnapshot struct {
	heap            *mem.HeapSnapshot
	barrierEpoch    uint32
	syncEpoch       uint32
	ctl             map[uint32]int
	pSyncCounts     map[SymAddr]int64
	nextTag         uint32
	matchTable      SymAddr
	matchTableReady bool
	nextCtxID       int
	stats           Stats
	link            any
}

// Snapshot captures a cleanly finished world (a nil-error RunKeep) so
// later sweeps can fork its future instead of replaying its past. The
// same quiescence the Reset lifecycle demands is asserted at every
// layer; a world with in-flight work cannot be captured.
func (w *World) Snapshot() *WorldSnapshot {
	s := &WorldSnapshot{
		opts:   w.opts,
		n:      len(w.pes),
		pes:    make([]peSnapshot, len(w.pes)),
		events: w.Cluster.Sim.EventsExecuted(),
	}
	for i, pe := range w.pes {
		s.pes[i] = pe.snapshot()
	}
	s.cluster = w.Cluster.Snapshot()
	return s
}

// snapshot captures one quiescent PE.
func (pe *PE) snapshot() peSnapshot {
	pe.assertQuiescent("snapshot")
	if pe.finalized {
		panic(fmt.Sprintf("core: snapshot of finalized pe %d", pe.id))
	}
	if len(pe.contexts) != 0 {
		panic(fmt.Sprintf("core: snapshot of pe %d with %d live context(s)", pe.id, len(pe.contexts)))
	}
	s := peSnapshot{
		heap:            pe.heap.Snapshot(),
		barrierEpoch:    pe.barrierEpoch,
		syncEpoch:       pe.syncEpoch,
		nextTag:         pe.nextTag,
		matchTable:      pe.matchTable,
		matchTableReady: pe.matchTableReady,
		nextCtxID:       pe.nextCtxID,
		stats:           pe.stats,
		link:            pe.link.Snapshot(),
	}
	if len(pe.ctl) > 0 {
		s.ctl = make(map[uint32]int, len(pe.ctl))
		//ntblint:ordered — copying into a map; insertion order is invisible
		for k, v := range pe.ctl {
			s.ctl[k] = v
		}
	}
	if len(pe.pSyncCounts) > 0 {
		s.pSyncCounts = make(map[SymAddr]int64, len(pe.pSyncCounts))
		//ntblint:ordered — copying into a map; insertion order is invisible
		for k, v := range pe.pSyncCounts {
			s.pSyncCounts[k] = v
		}
	}
	return s
}

// assertQuiescent panics unless the PE's runtime has fully drained —
// the shared precondition of reset and snapshot. Pending requests,
// staged forwards, or un-drained service work mean the previous run did
// not complete cleanly and the world must be discarded.
func (pe *PE) assertQuiescent(op string) {
	pe.link.AssertQuiescent(op)
	if len(pe.pending) != 0 {
		panic(fmt.Sprintf("core: %s of pe %d with %d pending request(s)", op, pe.id, len(pe.pending)))
	}
	if pe.outstanding != 0 {
		panic(fmt.Sprintf("core: %s of pe %d with %d non-blocking op(s) outstanding", op, pe.id, pe.outstanding))
	}
}

// Fork rewinds this world and repositions it at the snapshot's state, so
// its next RunKeepForked body continues the captured world's future.
// The world must have the snapshot's shape (options and PE count) and
// satisfy every Reset precondition; a freshly built world works too —
// construction leaves the same power-on state Reset restores. Heap pages
// are aliased copy-on-write, so a fork's cost is the device-register
// copies plus one page copy per chunk the divergent future actually
// writes.
func (w *World) Fork(s *WorldSnapshot) {
	if w.opts != s.opts {
		panic(fmt.Sprintf("core: fork of a %+v world from a %+v snapshot", w.opts, s.opts))
	}
	if len(w.pes) != s.n {
		panic(fmt.Sprintf("core: fork of a %d-PE world from a %d-PE snapshot", len(w.pes), s.n))
	}
	// A freshly built world still has its daemon-spawn events queued for
	// t=0; drive them so the daemons reach the parked state a completed
	// run leaves them in (a no-op on a recycled world, whose queue is
	// empty).
	if err := w.Cluster.Sim.Run(); err != nil {
		panic(fmt.Sprintf("core: fork daemon boot failed: %v", err))
	}
	w.Reset()
	for i, pe := range w.pes {
		pe.restore(&s.pes[i])
	}
	w.Cluster.Restore(s.cluster)
}

// restore applies one PE's captured state over the power-on state Reset
// just produced.
func (pe *PE) restore(s *peSnapshot) {
	pe.heap.Fork(s.heap)
	pe.barrierEpoch = s.barrierEpoch
	pe.syncEpoch = s.syncEpoch
	if len(s.ctl) > 0 {
		if pe.ctl == nil {
			pe.ctl = make(map[uint32]int, len(s.ctl))
		}
		//ntblint:ordered — copying into a map; insertion order is invisible
		for k, v := range s.ctl {
			pe.ctl[k] = v
		}
	}
	if len(s.pSyncCounts) > 0 {
		if pe.pSyncCounts == nil {
			pe.pSyncCounts = make(map[SymAddr]int64, len(s.pSyncCounts))
		}
		//ntblint:ordered — copying into a map; insertion order is invisible
		for k, v := range s.pSyncCounts {
			pe.pSyncCounts[k] = v
		}
	}
	pe.nextTag = s.nextTag
	pe.matchTable = s.matchTable
	pe.matchTableReady = s.matchTableReady
	pe.nextCtxID = s.nextCtxID
	pe.stats = s.stats
	pe.link.Restore(s.link)
}

// LaunchForked spawns one application process per PE running body
// directly, without re-running shmem_init: a forked world already
// carries the post-init runtime the snapshot captured. Drive with
// Cluster.Sim.Run, or use RunKeepForked.
func (w *World) LaunchForked(body func(p *sim.Proc, pe *PE)) {
	for _, pe := range w.pes {
		pe := pe
		w.Cluster.Sim.Go(peName("pe:", pe.id), func(p *sim.Proc) {
			body(p, pe)
		})
	}
}

// RunKeepForked is RunKeep for a forked (or continuing) world: body
// starts at the current virtual time with no init prefix, the world's
// daemons stay parked afterwards for recycling. Calling it on a world
// that just finished a RunKeep continues that run's future — the
// reference behaviour Fork is tested against.
func (w *World) RunKeepForked(body func(p *sim.Proc, pe *PE)) error {
	w.LaunchForked(body)
	return w.Cluster.Sim.Run()
}
