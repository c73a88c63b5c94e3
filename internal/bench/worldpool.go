package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
)

// The world pool. PR 2's profiling showed world construction dominated by
// buffer setup, and most sweeps run dozens of points over an identical
// world shape (same params, host count, options). The pool keeps cleanly
// finished worlds warm, keyed by that shape, so runRingWorld pays
// construction once per shape per worker instead of once per point.
//
// A pooled world's daemons stay parked on live goroutines, so a world
// must never be silently dropped: every world that leaves the pool is
// either recycled through Reset or released with Shutdown. That is why
// this is an explicit bounded structure rather than a sync.Pool — a
// GC-evicted entry would leak its goroutines permanently.

// maxPooledWorlds bounds how many warm worlds the pool retains across all
// shapes. Overflow check-ins are shut down instead of pooled; the cap
// only matters for sweeps that touch many distinct shapes (per-point
// params clones), where pooling has no wins to offer anyway.
const maxPooledWorlds = 32

// maxPooledPEs bounds the pool by total parked PEs rather than world
// count alone: a single 1024-PE world holds ~2k daemon goroutines and
// megabytes of per-PE state, so weighting the budget by PEs keeps the
// scaling sweep from pinning 32 such worlds (64k goroutines) in memory.
// Worlds over the per-world budget are still poolable — one at a time.
const maxPooledPEs = 4096

// worldPoolOn gates the pool; see SetWorldPool. Defaults to enabled.
var worldPoolOn atomic.Bool

func init() { worldPoolOn.Store(true) }

var worldPool struct {
	mu     sync.Mutex
	worlds map[string][]*core.World
	total  int // pooled worlds
	pes    int // pooled PEs (sum of world sizes), budgeted by maxPooledPEs
	hits   uint64
	misses uint64
}

// worldFingerprint keys the pool by everything that shapes a world: the
// full params value (params are mutated per point by some sweeps, so
// pointer identity is useless), host count, runtime options, and the
// fabric backend, so a cross-fabric sweep never recycles a
// switch-topology world into a ring measurement.
func worldFingerprint(par *model.Params, n int, opts core.Options, fab fabric.Kind) string {
	return fmt.Sprintf("%+v|n=%d|%+v|fab=%s", *par, n, opts, fab)
}

// SetWorldPool enables or disables world pooling for subsequent
// runRingWorld calls — the A/B switch for measuring what pooling buys.
// Disabling drains the pool.
func SetWorldPool(on bool) {
	worldPoolOn.Store(on)
	if !on {
		DrainWorldPool()
	}
}

// WorldPoolEnabled reports whether runRingWorld recycles worlds.
func WorldPoolEnabled() bool { return worldPoolOn.Load() }

// WorldPoolStats returns how many checkouts were served warm (hits) and
// how many built fresh worlds (misses) since process start.
func WorldPoolStats() (hits, misses uint64) {
	worldPool.mu.Lock()
	defer worldPool.mu.Unlock()
	return worldPool.hits, worldPool.misses
}

// DrainWorldPool shuts down and discards every pooled world, releasing
// their daemon goroutines. Benchmarks and tests that account for memory
// or goroutines call this between phases.
func DrainWorldPool() {
	worldPool.mu.Lock()
	var all []*core.World
	//ntblint:ordered — worlds are independent simulators being shut down post-run;
	for _, ws := range worldPool.worlds {
		all = append(all, ws...)
	}
	worldPool.worlds = nil
	worldPool.total = 0
	worldPool.pes = 0
	worldPool.mu.Unlock()
	for _, w := range all {
		w.Cluster.Sim.Shutdown()
	}
}

// checkoutWorld fetches a warm world matching the requested shape.
// It returns (nil, false) when pooling is disabled, and (nil, true) on a
// pool miss — the caller builds a fresh world and checks it in after a
// clean run. A checked-out world was keyed by its params value at
// check-in time; if the params object it references was mutated since
// (a sweep reusing one clone across points), the stale world is shut
// down and the checkout degrades to a miss.
func checkoutWorld(par *model.Params, n int, opts core.Options) (*core.World, bool) {
	if !worldPoolOn.Load() {
		return nil, false
	}
	key := worldFingerprint(par, n, opts, Fabric())
	worldPool.mu.Lock()
	var w *core.World
	if ws := worldPool.worlds[key]; len(ws) > 0 {
		w = ws[len(ws)-1]
		ws[len(ws)-1] = nil
		worldPool.worlds[key] = ws[:len(ws)-1]
		worldPool.total--
		worldPool.pes -= n
		worldPool.hits++
	} else {
		worldPool.misses++
	}
	worldPool.mu.Unlock()
	if w != nil && worldFingerprint(w.Cluster.Par, n, opts, w.Cluster.Kind()) != key {
		w.Cluster.Sim.Shutdown()
		return nil, true
	}
	return w, true
}

// checkinWorld returns a freshly Reset world to the pool. If pooling was
// disabled mid-run or the pool is full, the world is shut down instead.
func checkinWorld(w *core.World, n int, opts core.Options) {
	if !worldPoolOn.Load() {
		w.Cluster.Sim.Shutdown()
		return
	}
	key := worldFingerprint(w.Cluster.Par, n, opts, w.Cluster.Kind())
	worldPool.mu.Lock()
	// Admit if both budgets hold; a world bigger than the whole PE
	// budget is still admitted when the pool is empty, so thousand-PE
	// sweeps keep exactly one warm world instead of rebuilding per point.
	if worldPool.total >= maxPooledWorlds ||
		(worldPool.pes+n > maxPooledPEs && worldPool.total > 0) {
		worldPool.mu.Unlock()
		w.Cluster.Sim.Shutdown()
		return
	}
	if worldPool.worlds == nil {
		worldPool.worlds = make(map[string][]*core.World)
	}
	worldPool.worlds[key] = append(worldPool.worlds[key], w)
	worldPool.total++
	worldPool.pes += n
	worldPool.mu.Unlock()
}
