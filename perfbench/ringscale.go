package main

import (
	"bytes"
	"fmt"

	ntbshmem "repro"
	"repro/internal/core"
)

// ringScale is the ring-scale workload: a memcpy-mode ring of n PEs,
// recycled with World.Reset between reps. Each rep runs rounds of "put
// size bytes to the right neighbour, barrier, read back what the left
// neighbour put". Every
// transfer is one hop, so no chunk is forwarded; the cost is simulator
// dispatch and process handoff across ~2n live processes.
type ringScale struct {
	n, rounds, size int
	seed            int64
	payload         [][]byte // [pe*rounds+round]: what pe puts in round
	got             [][]byte // [pe*rounds+round]: what pe read back
}

func newRingScale(n int, seed int64) *ringScale {
	w := &ringScale{n: n, rounds: 4, size: 4096, seed: seed}
	for i := 0; i < n*w.rounds; i++ {
		w.payload = append(w.payload, make([]byte, w.size))
		w.got = append(w.got, make([]byte, w.size))
	}
	return w
}

func (w *ringScale) config() ntbshmem.Config {
	return ntbshmem.Config{Hosts: w.n, Mode: ntbshmem.ModeCPU}
}

func (w *ringScale) segments() int { return 6 }

// prepare keys every payload by seed, sender, round and rep, so a rep
// that delivered a previous rep's (or a neighbour's) bytes fails.
func (w *ringScale) prepare(rep int) {
	for pe := 0; pe < w.n; pe++ {
		for r := 0; r < w.rounds; r++ {
			fillPattern(w.payload[pe*w.rounds+r], w.seed, 1, pe, r, rep)
			clear(w.got[pe*w.rounds+r])
		}
	}
}

func (w *ringScale) body(p *ntbshmem.Proc, pe *ntbshmem.PE) {
	inbox := pe.MustMalloc(p, w.rounds*w.size)
	pe.BarrierAll(p)
	id := pe.ID()
	right := (id + 1) % w.n
	for r := 0; r < w.rounds; r++ {
		slot := inbox + ntbshmem.SymAddr(r*w.size)
		pe.PutBytes(p, right, slot, w.payload[id*w.rounds+r])
		pe.BarrierAll(p)
		pe.LocalRead(p, slot, w.got[id*w.rounds+r])
	}
}

func (w *ringScale) verifyPE(pe, rep int) (bool, string) {
	left := (pe - 1 + w.n) % w.n
	for r := 0; r < w.rounds; r++ {
		if !bytes.Equal(w.got[pe*w.rounds+r], w.payload[left*w.rounds+r]) {
			return false, fmt.Sprintf("round %d: inbox does not hold pe %d's rep-%d payload", r, left, rep)
		}
	}
	return true, ""
}

func (w *ringScale) planStats() core.Stats {
	puts := uint64(w.n * w.rounds)
	return core.Stats{Puts: puts, PutBytes: puts * uint64(w.size)}
}

func (w *ringScale) expected() (e expectation, haveEnd, haveStats bool) {
	e, ok := ringScaleExpected[w.n]
	return e, ok, ok
}
