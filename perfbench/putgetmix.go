package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	ntbshmem "repro"
	"repro/internal/core"
)

// Op kinds of the put-get-mix plan.
const (
	opPut = iota
	opGet
	opAMO
)

// mixOp is one planned operation of a PE. buf indexes the PE's put
// payloads, get buffers or fetched values, by kind.
type mixOp struct {
	kind   int
	target int
	size   int   // put/get bytes
	off    int   // get offset into the target's source region
	delta  int64 // fetch-add increment
	buf    int
}

// incoming is one put a PE receives: from sender, the sender's payload
// index, and the size.
type incoming struct{ from, buf, size int }

// putGetMix is the put-get-mix workload: a DMA-mode ring of n PEs built
// once, where each PE runs a seeded plan of blocking GetBytes,
// PutBytesNBI and FetchAddInt64 to random (mostly multi-hop) targets
// with sizes from 1 KiB to 256 KiB. The plan is generated here from the
// seed; PE bodies only read it. Rightward routing makes a target d hops
// right cost d hops for a put and 2d for a get's request and reply.
//
// Symmetric layout per PE: an inbox of n-1 slots (one per possible
// sender, so puts never overlap), a source region every PE fills with
// its own pattern for others to get from, and one fetch-add counter.
type putGetMix struct {
	n    int
	seed int64
	plan [][]mixOp
	in   [][]incoming

	payload [][][]byte // [pe][buf] put payloads
	getBuf  [][][]byte // [pe][buf] get destinations
	fetched [][]int64  // [pe][buf] fetch-add results
	src     [][]byte   // [pe] source region contents
	inGot   [][][]byte // [pe][i] bytes read back for in[pe][i]
	counter []int64    // [pe] final counter value read back
}

const mixMaxSize = 256 << 10

// Every PE runs the same op slots: puts and gets of fixed sizes spanning
// 1 KiB to 256 KiB, plus small fetch-adds. The seed decides which PE
// sends each slot how far, the op order, get offsets and all data, but
// not the total bytes × hops a rep moves, so host cost is comparable
// across seeds.
var (
	mixPutSizes = []int{1 << 10, 16 << 10, 64 << 10, 256 << 10}
	mixGetSizes = []int{4 << 10, 32 << 10, 128 << 10}
)

const mixAMOs = 4

func newPutGetMix(n int, seed int64) *putGetMix {
	w := &putGetMix{n: n, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	// PE id draws rank u = perm[id]; its slot-k target lies
	// 1 + (u + step·k) mod (n-1) hops to the right. Over all PEs each
	// slot then covers every distance once (plus one fixed repeat),
	// whatever the permutation, and with step coprime to n-1 a PE's put
	// targets are distinct.
	perm := rng.Perm(n)
	step := max(1, (n-1)/4)
	for gcd(step, n-1) != 1 {
		step++
	}
	dist := func(id, k int) int { return 1 + (perm[id]+step*k)%(n-1) }
	w.in = make([][]incoming, n)
	for id := 0; id < n; id++ {
		var ops []mixOp
		for i, sz := range mixPutSizes {
			t := (id + dist(id, i)) % n
			ops = append(ops, mixOp{kind: opPut, target: t, size: sz, buf: i})
			w.in[t] = append(w.in[t], incoming{from: id, buf: i, size: sz})
		}
		for i, sz := range mixGetSizes {
			t := (id + dist(id, len(mixPutSizes)+i)) % n
			off := rng.Intn((mixMaxSize-sz)/8+1) * 8
			ops = append(ops, mixOp{kind: opGet, target: t, size: sz, off: off, buf: i})
		}
		for i := 0; i < mixAMOs; i++ {
			t := (id + dist(id, len(mixPutSizes)+len(mixGetSizes)+i)) % n
			ops = append(ops, mixOp{kind: opAMO, target: t, delta: 1 + rng.Int63n(1000), buf: i})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		w.plan = append(w.plan, ops)

		var pay, gets [][]byte
		for _, sz := range mixPutSizes {
			pay = append(pay, make([]byte, sz))
		}
		for _, sz := range mixGetSizes {
			gets = append(gets, make([]byte, sz))
		}
		w.payload = append(w.payload, pay)
		w.getBuf = append(w.getBuf, gets)
		w.fetched = append(w.fetched, make([]int64, mixAMOs))
		w.src = append(w.src, make([]byte, mixMaxSize))
	}
	for id := 0; id < n; id++ {
		var got [][]byte
		for _, in := range w.in[id] {
			got = append(got, make([]byte, in.size))
		}
		w.inGot = append(w.inGot, got)
	}
	w.counter = make([]int64, n)
	return w
}

func (w *putGetMix) config() ntbshmem.Config {
	return ntbshmem.Config{Hosts: w.n, Mode: ntbshmem.ModeDMA}
}

func (w *putGetMix) segments() int { return 4 }

// prepare keys payloads by seed, sender, op and rep, and source regions
// by seed, owner and rep.
func (w *putGetMix) prepare(rep int) {
	for id := 0; id < w.n; id++ {
		for i, b := range w.payload[id] {
			fillPattern(b, w.seed, 2, id, i, rep)
		}
		fillPattern(w.src[id], w.seed, 3, id, 0, rep)
		for _, b := range w.getBuf[id] {
			clear(b)
		}
		for _, b := range w.inGot[id] {
			clear(b)
		}
		clear(w.fetched[id])
	}
	clear(w.counter)
}

// slot is where sender's puts land in target's inbox.
func (w *putGetMix) slot(sender, target int) int { return (sender - target - 1 + w.n) % w.n }

func (w *putGetMix) body(p *ntbshmem.Proc, pe *ntbshmem.PE) {
	inbox := pe.MustMalloc(p, (w.n-1)*mixMaxSize)
	src := pe.MustMalloc(p, mixMaxSize)
	ctr := pe.MustMalloc(p, 8)
	id := pe.ID()
	pe.LocalWrite(p, src, w.src[id])
	pe.BarrierAll(p)
	for _, op := range w.plan[id] {
		switch op.kind {
		case opPut:
			dst := inbox + ntbshmem.SymAddr(w.slot(id, op.target)*mixMaxSize)
			pe.PutBytesNBI(p, op.target, dst, w.payload[id][op.buf])
		case opGet:
			pe.GetBytes(p, op.target, src+ntbshmem.SymAddr(op.off), w.getBuf[id][op.buf])
		case opAMO:
			w.fetched[id][op.buf] = pe.FetchAddInt64(p, op.target, ctr, op.delta)
		}
	}
	pe.Quiet(p)
	pe.BarrierAll(p)
	for i, in := range w.in[id] {
		pe.LocalRead(p, inbox+ntbshmem.SymAddr(w.slot(in.from, id)*mixMaxSize), w.inGot[id][i])
	}
	var c [1]int64
	ntbshmem.LocalGet(p, pe, ctr, c[:])
	w.counter[id] = c[0]
}

// verifyPE checks everything PE id's rep left behind: its gets returned
// the owners' source bytes, its inbox holds each sender's payload, and
// its counter saw a consistent sequence of atomic fetch-adds.
func (w *putGetMix) verifyPE(id, rep int) (bool, string) {
	for _, op := range w.plan[id] {
		if op.kind == opGet && !bytes.Equal(w.getBuf[id][op.buf], w.src[op.target][op.off:op.off+op.size]) {
			return false, fmt.Sprintf("get of %d B at %d from pe %d returned wrong bytes", op.size, op.off, op.target)
		}
	}
	for i, in := range w.in[id] {
		if !bytes.Equal(w.inGot[id][i], w.payload[in.from][in.buf]) {
			return false, fmt.Sprintf("inbox slot of pe %d does not hold its rep-%d payload", in.from, rep)
		}
	}
	// Fetch-adds on this PE's counter, ordered by the value each saw,
	// must chain: every fetch returns the previous one plus its delta,
	// starting from zero and ending at the final counter.
	type amo struct{ seen, delta int64 }
	var chain []amo
	for from, ops := range w.plan {
		for _, op := range ops {
			if op.kind == opAMO && op.target == id {
				chain = append(chain, amo{w.fetched[from][op.buf], op.delta})
			}
		}
	}
	slices.SortFunc(chain, func(a, b amo) int { return int(a.seen - b.seen) })
	var next int64
	for _, a := range chain {
		if a.seen != next {
			return false, fmt.Sprintf("fetch-add saw %d, want %d", a.seen, next)
		}
		next += a.delta
	}
	if w.counter[id] != next {
		return false, fmt.Sprintf("counter %d, want %d", w.counter[id], next)
	}
	return true, ""
}

func (w *putGetMix) planStats() core.Stats {
	var s core.Stats
	for _, ops := range w.plan {
		for _, op := range ops {
			switch op.kind {
			case opPut:
				s.Puts++
				s.PutBytes += uint64(op.size)
			case opGet:
				s.Gets++
				s.GetBytes += uint64(op.size)
			case opAMO:
				s.AMOs += 2 // counted by the issuer and by the target applying it
			}
		}
	}
	return s
}

func (w *putGetMix) expected() (e expectation, haveEnd, haveStats bool) {
	e.stats, haveStats = putGetMixStats[w.n]
	if w.n == putGetMixPEs {
		e.end, haveEnd = putGetMixEnd[w.seed]
	}
	return e, haveEnd, haveStats
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
