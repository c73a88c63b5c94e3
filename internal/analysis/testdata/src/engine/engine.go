// Package engine is the fixture for the shared analysis engine's own
// tests: a direct call edge with a single caller, a transitive chain,
// and a call made only inside a function literal.
package engine

// Sim stands in for sim.Simulator; After runs fn as a scheduled
// callback would.
type Sim struct{}

func (s *Sim) After(d int, fn func()) { fn() }

// Port is a minimal device with a peer and some registers.
type Port struct {
	sim   *Sim
	peer  *Port
	spads [4]uint32
	lut   map[uint16]bool
}

// write hands the peer to stamp, stamp's only caller.
func (p *Port) write(val uint32) {
	stamp(p.peer, val)
}

func stamp(q *Port, val uint32) {
	q.spads[0] = val
}

// register reaches admit only through check.
func (p *Port) register() {
	p.check()
}

func (p *Port) check() {
	p.admit()
}

func (p *Port) admit() {
	p.lut[1] = true
}

// deferred calls ring only inside the literal it passes to After, so
// the edge to ring belongs to deferred.
func (p *Port) deferred() {
	p.sim.After(1, func() {
		p.ring()
	})
}

func (p *Port) ring() {
	p.spads[1] = 1
}
