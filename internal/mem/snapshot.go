package mem

import (
	"fmt"
	"sync/atomic"
)

// Copy-on-write heap snapshots. A snapshot freezes the heap's allocator
// state and takes ownership of every chunk backing overlapping the
// written extent; the heap itself and any number of forked heaps then
// share those frozen pages, and the mutating access paths (Write,
// Segments) privatize a shared chunk — one copy of its written prefix —
// the first time it is written. Capturing a snapshot therefore costs
// O(chunks) flag updates, not O(bytes), and a forked sweep point pays
// copy cost only for the pages its divergent future actually touches.
//
// Invariant: a frozen page is immutable forever. Writers privatize
// before touching it, and Reset detaches shared chunks (leaving them
// unbacked, which reads as zero) instead of clearing them, so a
// snapshot's contents survive any number of fork/reset cycles of the
// heaps referencing it.

// cowCopies counts chunk privatizations (copy-on-write page copies)
// across every heap in the process, for the fork-stats report.
var cowCopies atomic.Uint64

// CowCopies reports how many copy-on-write chunk privatizations heaps
// have performed process-wide since start.
func CowCopies() uint64 { return cowCopies.Load() }

// HeapSnapshot is a frozen image of a heap: the allocator's block list
// and counters plus read-only pages for every chunk that overlapped the
// written extent at capture time. It is immutable and safe to fork from
// concurrently (forks of one snapshot only ever read it).
type HeapSnapshot struct {
	chunkSize int64
	size      int64    // virtual extent at capture
	frozen    [][]byte // chunks overlapping [0, written), shared read-only
	blocks    []block
	live      int
	liveBytes int64
	written   int64
}

// Written reports the snapshot's written high-water mark, for tests.
func (s *HeapSnapshot) Written() int64 { return s.written }

// Snapshot captures the heap's current state. The heap's own chunks in
// the written extent become shared pages (privatized again on the next
// write), so the capture itself copies no data; snapshotting a heap that
// is already sharing pages with an older snapshot re-shares those same
// pages.
func (h *Heap) Snapshot() *HeapSnapshot {
	s := &HeapSnapshot{
		chunkSize: h.chunkSize,
		size:      h.Size(),
		blocks:    append([]block(nil), h.blocks...),
		live:      h.live,
		liveBytes: h.liveBytes,
		written:   h.written,
	}
	n := int((h.written + h.chunkSize - 1) / h.chunkSize)
	if n == 0 {
		return s
	}
	if h.shared == nil {
		h.shared = make([]bool, len(h.chunks))
	}
	s.frozen = make([][]byte, n)
	for ci := 0; ci < n; ci++ {
		s.frozen[ci] = h.chunks[ci]
		h.shared[ci] = true
	}
	return s
}

// Fork points a freshly Reset heap at the snapshot's state: allocator
// metadata is restored and the snapshot's frozen pages are aliased
// rather than copied. The heap's displaced backings (all-zero after
// Reset) park in the spare pool, ready to back later privatizations
// without allocating; Fork is the pool's only source. The heap must have
// the snapshot's geometry and be in its power-on state — forking over
// live allocations would leak them.
func (h *Heap) Fork(s *HeapSnapshot) {
	if h.chunkSize != s.chunkSize {
		panic(fmt.Sprintf("mem: fork of a chunk-size-%d heap from a chunk-size-%d snapshot", h.chunkSize, s.chunkSize))
	}
	if s.size > h.maxSize {
		panic(fmt.Sprintf("mem: fork of a max-%d heap from a %d-byte snapshot", h.maxSize, s.size))
	}
	if h.written != 0 || h.live != 0 {
		panic("mem: fork of a heap that is not freshly Reset")
	}
	// Grow the heap to at least the snapshot's extent with unbacked
	// chunks, then alias the frozen pages, displacing the heap's own
	// zero backings into the spare pool for later privatizations.
	for h.Size() < s.size {
		h.chunks = append(h.chunks, nil)
		if h.shared != nil {
			h.shared = append(h.shared, false)
		}
	}
	if h.shared == nil {
		h.shared = make([]bool, len(h.chunks))
	}
	for ci := range s.frozen {
		if h.shared[ci] {
			panic("mem: fork found a shared chunk on a reset heap")
		}
		if len(h.chunks[ci]) > 0 {
			h.spare = append(h.spare, h.chunks[ci])
		}
		h.chunks[ci] = s.frozen[ci]
		h.shared[ci] = true
	}
	h.blocks = append(h.blocks[:0], s.blocks...)
	// A pre-grown heap larger than the snapshot keeps its tail as free
	// space, exactly as a demand-grown continuation would produce it.
	if extra := h.Size() - s.size; extra > 0 {
		if n := len(h.blocks); n > 0 && h.blocks[n-1].free {
			h.blocks[n-1].size += extra
		} else {
			h.blocks = append(h.blocks, block{off: s.size, size: extra, free: true})
		}
	}
	h.live = s.live
	h.liveBytes = s.liveBytes
	h.written = s.written
}
