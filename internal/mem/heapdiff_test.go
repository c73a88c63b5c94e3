package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// diffHeap is one heap under the differential test, paired with an
// eagerly backed twin and a flat byte image of its virtual space. The
// twin runs the same operations but has every private chunk backed to
// its full chunkSize after each one, as if chunks were allocated whole;
// the image is what every Read must return.
type diffHeap struct {
	lazy, eager *Heap
	image       []byte
	live        []int64 // base offsets of live allocations
}

// diffSnap pairs the two heaps' snapshots with the image and live set
// they captured.
type diffSnap struct {
	lazy, eager *HeapSnapshot
	image       []byte
	live        []int64
}

// backFully gives every private chunk of h a full-size backing holding
// the same bytes, the state eager chunk allocation would leave.
func backFully(h *Heap) {
	for ci, c := range h.chunks {
		if (h.shared != nil && h.shared[ci]) || int64(len(c)) == h.chunkSize {
			continue
		}
		full := make([]byte, h.chunkSize)
		copy(full, c)
		h.chunks[ci] = full
	}
}

// heapDiffRun drives one seeded random operation sequence over two heap
// pairs and reports the first divergence. smallWrites reports whether
// every write, and the live block holding its last byte, ended within
// the first minBacking bytes.
func heapDiffRun(seed int64, steps int) (smallWrites bool, err error) {
	rng := rand.New(rand.NewSource(seed))
	chunk := []int64{512, 4096, 16384}[rng.Intn(3)]
	small := rng.Intn(3) == 0 // keep allocations tiny so demand stays ≤ minBacking
	maxAlloc := int(2 * chunk)
	if small {
		maxAlloc = 128
	}
	heaps := make([]*diffHeap, 2)
	for i := range heaps {
		heaps[i] = &diffHeap{
			lazy:  NewHeap(int(chunk), int(16*chunk)),
			eager: NewHeap(int(chunk), int(16*chunk)),
		}
	}
	var snaps []diffSnap
	var demand int64 // highest write end or enclosing block end seen

	syncImage := func(d *diffHeap) {
		if n := int(d.lazy.Size()); n > len(d.image) {
			d.image = append(d.image, make([]byte, n-len(d.image))...)
		}
	}
	noteWrite := func(h *Heap, off int64, n int) {
		end := off + int64(n)
		if b, s, ok := h.BlockOf(end - 1); ok && b+s > end {
			end = b + s
		}
		demand = max(demand, end)
	}
	pickRange := func(d *diffHeap) (int64, int) {
		if len(d.live) > 0 && rng.Intn(4) != 0 {
			base, size, _ := d.lazy.BlockOf(d.live[rng.Intn(len(d.live))])
			off := base + rng.Int63n(size)
			return off, 1 + rng.Intn(int(base+size-off))
		}
		size := d.lazy.Size()
		if small || size == 0 {
			return 0, 0
		}
		off := rng.Int63n(size)
		return off, 1 + rng.Intn(int(min(size-off, 3*chunk)))
	}
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	for step := 0; step < steps; step++ {
		d := heaps[rng.Intn(len(heaps))]
		op := rng.Intn(11)
		fail := func(format string, a ...any) (bool, error) {
			return false, fmt.Errorf("seed %d step %d op %d: %s", seed, step, op, fmt.Sprintf(format, a...))
		}
		switch op {
		case 0, 1: // Alloc / AllocAligned
			size := 1 + rng.Intn(maxAlloc)
			var a, b int64
			var ea, eb error
			if op == 0 {
				a, ea = d.lazy.Alloc(size)
				b, eb = d.eager.Alloc(size)
			} else {
				align := 8 << rng.Intn(8)
				a, ea = d.lazy.AllocAligned(size, align)
				b, eb = d.eager.AllocAligned(size, align)
			}
			if (ea == nil) != (eb == nil) || a != b {
				return fail("alloc diverged: lazy %d/%v eager %d/%v", a, ea, b, eb)
			}
			if ea == nil {
				d.live = append(d.live, a)
			}
		case 2: // Free
			if len(d.live) == 0 {
				continue
			}
			i := rng.Intn(len(d.live))
			if err := d.lazy.Free(d.live[i]); err != nil {
				return fail("free: %v", err)
			}
			if err := d.eager.Free(d.live[i]); err != nil {
				return fail("eager free: %v", err)
			}
			d.live = append(d.live[:i], d.live[i+1:]...)
		case 3: // Realloc
			if len(d.live) == 0 {
				continue
			}
			i := rng.Intn(len(d.live))
			_, oldSize, _ := d.lazy.BlockOf(d.live[i])
			newSize := 1 + rng.Intn(maxAlloc)
			a, ea := d.lazy.Realloc(d.live[i], newSize)
			b, eb := d.eager.Realloc(d.live[i], newSize)
			if (ea == nil) != (eb == nil) || a != b {
				return fail("realloc diverged: lazy %d/%v eager %d/%v", a, ea, b, eb)
			}
			if ea != nil {
				continue
			}
			syncImage(d)
			if a != d.live[i] {
				keep := min(oldSize, int64(newSize))
				copy(d.image[a:a+keep], d.image[d.live[i]:d.live[i]+keep])
				noteWrite(d.lazy, a, int(keep))
				d.live[i] = a
			}
		case 4, 5: // Write
			off, n := pickRange(d)
			if n == 0 {
				continue
			}
			noteWrite(d.lazy, off, n)
			data := fill(n)
			d.lazy.Write(off, data)
			d.eager.Write(off, data)
			copy(d.image[off:], data)
		case 6: // Segments, writing through the aliases
			off, n := pickRange(d)
			if n == 0 {
				continue
			}
			noteWrite(d.lazy, off, n)
			data := fill(n)
			rest := data
			d.lazy.Segments(off, n, func(seg []byte) {
				copy(seg, rest)
				rest = rest[len(seg):]
			})
			d.eager.Write(off, data)
			copy(d.image[off:], data)
		case 7: // Snapshot
			snaps = append(snaps, diffSnap{
				lazy:  d.lazy.Snapshot(),
				eager: d.eager.Snapshot(),
				image: append([]byte(nil), d.image...),
				live:  append([]int64(nil), d.live...),
			})
		case 8: // Reset
			d.lazy.Reset()
			d.eager.Reset()
			clear(d.image)
			d.live = d.live[:0]
		case 9: // Reset then Fork from a recorded snapshot
			if len(snaps) == 0 {
				continue
			}
			s := snaps[rng.Intn(len(snaps))]
			d.lazy.Reset()
			d.eager.Reset()
			d.lazy.Fork(s.lazy)
			d.eager.Fork(s.eager)
			d.image = make([]byte, d.lazy.Size())
			copy(d.image, s.image)
			d.live = append(d.live[:0], s.live...)
		case 10: // Read a random range
			off, n := pickRange(d)
			if n == 0 {
				continue
			}
			got := make([]byte, n)
			d.lazy.Read(off, got)
			if !bytes.Equal(got, d.image[off:off+int64(n)]) {
				return fail("Read(%d, %d) differs from the flat model", off, n)
			}
		}
		backFully(d.eager)
		syncImage(d)

		for hi, h := range heaps {
			if h.lazy.Chunks() != h.eager.Chunks() || h.lazy.Size() != h.eager.Size() {
				return fail("heap %d: lazy %d chunks/%d bytes, eager %d/%d",
					hi, h.lazy.Chunks(), h.lazy.Size(), h.eager.Chunks(), h.eager.Size())
			}
			for ci, c := range h.lazy.chunks {
				if int64(len(c)) > chunk {
					return fail("heap %d chunk %d backs %d bytes, chunk size %d", hi, ci, len(c), chunk)
				}
				if demand <= minBacking && len(c) > minBacking {
					return fail("heap %d chunk %d backs %d bytes after writes ending by %d", hi, ci, len(c), demand)
				}
			}
		}
		if step%16 == 0 || op == 8 || op == 9 {
			for hi, h := range heaps {
				for _, hp := range []*Heap{h.lazy, h.eager} {
					got := make([]byte, hp.Size())
					hp.Read(0, got)
					if !bytes.Equal(got, h.image) {
						return fail("heap %d: full Read differs from the flat model", hi)
					}
				}
			}
		}
	}
	return demand <= minBacking, nil
}

// TestHeapDifferentialAgainstFlatModel runs seeded random sequences of
// every Heap operation against a flat []byte model and an eagerly backed
// twin. Every Read must match the model, the twin must report the same
// offsets, Chunks and Size, no chunk may back more than chunkSize, and a
// run whose writes all end within minBacking must hold at most
// minBacking per chunk. A failure names the seed and step to replay.
func TestHeapDifferentialAgainstFlatModel(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 20
	}
	smallRuns := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		small, err := heapDiffRun(seed, 400)
		if err != nil {
			t.Fatal(err)
		}
		if small {
			smallRuns++
		}
	}
	if smallRuns == 0 {
		t.Fatal("no run kept its writes within minBacking; the small-heap bound went unchecked")
	}
}

// TestHeapSmallWritesBackOnePage pins the bound directly: a heap of
// large chunks whose writes stay in its first page backs one page per
// chunk written, across snapshot, fork and reset.
func TestHeapSmallWritesBackOnePage(t *testing.T) {
	h := NewHeap(1<<22, 1<<24)
	off, err := h.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(3 << 22); err != nil { // spans three more chunks, never written
		t.Fatal(err)
	}
	fillPattern(h, off, 512, 0x3c)
	snap := h.Snapshot()
	child := NewHeap(1<<22, 1<<24)
	for cycle := 0; cycle < 3; cycle++ {
		child.Fork(snap)
		fillPattern(child, off, 64, byte(cycle))
		for ci, c := range child.chunks {
			if len(c) > minBacking {
				t.Fatalf("cycle %d: chunk %d backs %d bytes for a 512-byte write", cycle, ci, len(c))
			}
		}
		child.Reset()
	}
	if got := h.Chunks(); got != 4 {
		t.Fatalf("heap reports %d chunks, want 4", got)
	}
	for ci, c := range h.chunks[1:] {
		if c != nil {
			t.Fatalf("chunk %d was never written but backs %d bytes", ci+1, len(c))
		}
	}
}

// TestHeapBackingSizedToBlock checks that the first write into a live
// block backs the chunk to the block's end in one allocation, so filling
// the block with small writes allocates nothing more.
func TestHeapBackingSizedToBlock(t *testing.T) {
	h := NewHeap(1<<20, 1<<22)
	off, err := h.Alloc(40 << 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(off, make([]byte, 8))
	if got := len(h.chunks[0]); got != 40<<10 {
		t.Fatalf("an 8-byte write into a 40 KiB block backs %d bytes, want %d", got, 40<<10)
	}
	word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	allocs := testing.AllocsPerRun(10, func() {
		for o := off; o < off+40<<10; o += 8 {
			h.Write(o, word)
		}
	})
	if allocs != 0 {
		t.Fatalf("filling the block allocated %.1f times", allocs)
	}
}

// TestHeapForkCycleReusesSpareBacking checks that a pooled heap cycling
// through Fork, a copy-on-write fault and Reset recycles the backing
// Fork displaced instead of allocating a new one each cycle.
func TestHeapForkCycleReusesSpareBacking(t *testing.T) {
	parent := NewHeap(1<<20, 1<<22)
	off, err := parent.Alloc(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(parent, off, 16<<10, 0x44)
	snap := parent.Snapshot()
	child := NewHeap(1<<20, 1<<22)
	cycle := func() {
		child.Fork(snap)
		child.Write(off, []byte{9})
		child.Reset()
	}
	cycle() // first fault allocates the backing later cycles recycle
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("fork cycle allocated %.1f times", allocs)
	}
	checkPattern(t, parent, off, 16<<10, 0x44)
}
