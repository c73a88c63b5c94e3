package fabric

import (
	"fmt"
	"strconv"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// ringLink is the reference backend: one host's attachment to the
// paper's switchless NTB ring. It owns the Fig 5 service thread, the
// bypass-buffer forwarder, rightward/shortest-arc routing, and the Fig 6
// doorbell barrier. Every results/*.csv is produced over this link, so
// its virtual timeline is the extraction invariant: daemon names, spawn
// order, sleeps, and per-chunk work are exactly what the pre-extraction
// runtime did.
type ringLink struct {
	c       *Cluster    // reset: keep; snap: keep — construction identity
	host    *Host       // reset: keep; snap: keep — construction identity
	opts    LinkOptions // reset: keep; snap: keep — construction identity
	deliver Handler     // reset: keep; snap: keep — installed handler survives recycling and forking

	// Service path (Fig 5).
	svcQ      *sim.Queue[*ntb.Port] // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	svcActive bool                  // reset: keep; snap: keep — AssertQuiescent guarantees false (service drained)
	svcIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	fwdQ      *sim.Queue[*fwdMsg]   // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	fwdBusy   int                   // reset: keep; snap: keep — AssertQuiescent guarantees zero
	fwdIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	pool      bufPool               // reset: keep; snap: keep — warm staging buffers hold no simulation state

	// Link senders: the paper's stop-and-wait TxChannels or pipelined
	// PipeTx, per LinkOptions.Pipeline; rx state exists only pipelined.
	txLeft, txRight driver.Sender // PipeTx reset here; TxChannel reset by Cluster.Reset
	rxLeft, rxRight *driver.PipeRx

	// Per-port ack thunks, built once in Start: dispatch passes its ack
	// through the indirect deliver handler, so a closure literal built
	// in serve's loop escapes — one heap allocation per message on the
	// BenchmarkWorldPut1M hot path. Caching the two possible closures
	// keeps the service loop allocation-free.
	ackLeft, ackRight func(*sim.Proc) // reset: keep; snap: keep — construction identity, no simulation state
	relLeft, relRight func(*sim.Proc) // reset: keep; snap: keep — construction identity, no simulation state

	// Ring barrier tokens (Fig 6): one queue pair per travel direction
	// (rightward tokens arrive on the left port and vice versa).
	startQ, endQ   *sim.Queue[struct{}] // reset: keep; snap: keep — AssertQuiescent guarantees them drained
	startQL, endQL *sim.Queue[struct{}] // reset: keep; snap: keep — AssertQuiescent guarantees them drained

	stats LinkStats
}

// hostName builds "prefix<id>" with plain integer formatting; link
// construction names several queues and conds per host, and at a
// thousand hosts fmt's reflection cost shows up in pool-miss latency.
func hostName(prefix string, id int) string {
	return prefix + strconv.Itoa(id)
}

func newRingLink(c *Cluster, h *Host, opts LinkOptions) *ringLink {
	l := &ringLink{
		c:       c,
		host:    h,
		opts:    opts,
		svcQ:    sim.NewQueue[*ntb.Port](hostName("svc:", h.ID)),
		svcIdle: sim.NewCond(hostName("svc-idle:", h.ID)),
		fwdQ:    sim.NewQueue[*fwdMsg](hostName("fwd:", h.ID)),
		fwdIdle: sim.NewCond(hostName("fwd-idle:", h.ID)),
		startQ:  sim.NewQueue[struct{}](hostName("barrier-start:", h.ID)),
		endQ:    sim.NewQueue[struct{}](hostName("barrier-end:", h.ID)),
		startQL: sim.NewQueue[struct{}](hostName("barrier-start-left:", h.ID)),
		endQL:   sim.NewQueue[struct{}](hostName("barrier-end-left:", h.ID)),
		pool:    bufPool{par: c.Par},
	}
	// Pick the link protocol. NewPipeTx re-registers the ACK vector that
	// the fabric-built stop-and-wait channels claimed, retiring them.
	if depth := opts.Pipeline; depth >= 2 {
		l.txLeft = driver.NewPipeTx(h.LeftEP, c.Par, depth)
		l.txRight = driver.NewPipeTx(h.RightEP, c.Par, depth)
		l.rxLeft = driver.NewPipeRx(h.Left, c.Par, depth)
		l.rxRight = driver.NewPipeRx(h.Right, c.Par, depth)
	} else {
		l.txLeft = h.TxLeft
		l.txRight = h.TxRight
	}
	return l
}

// Start wires doorbell vectors and spawns the service and forwarder
// threads (the paper's shmem_init steps 2 and 4).
func (l *ringLink) Start(deliver Handler) {
	l.deliver = deliver
	dataVec := func(port *ntb.Port) func() {
		return func() {
			l.stats.Interrupts++
			l.svcQ.Push(port)
		}
	}
	for _, ep := range []*driver.Endpoint{l.host.LeftEP, l.host.RightEP} {
		if ep == nil {
			continue
		}
		ep.Handle(driver.VecPut, dataVec(ep.Port))
		ep.Handle(driver.VecGet, dataVec(ep.Port))
	}
	// Rightward-travelling barrier tokens arrive on the left-side
	// adapter (host 0's left adapter faces host N-1); leftward tokens —
	// used by the bidirectional flush under shortest-path routing —
	// arrive on the right-side adapter.
	l.host.LeftEP.Handle(driver.VecBarrierStart, func() {
		l.stats.Interrupts++
		l.startQ.Push(struct{}{})
	})
	l.host.LeftEP.Handle(driver.VecBarrierEnd, func() {
		l.stats.Interrupts++
		l.endQ.Push(struct{}{})
	})
	l.host.RightEP.Handle(driver.VecBarrierStart, func() {
		l.stats.Interrupts++
		l.startQL.Push(struct{}{})
	})
	l.host.RightEP.Handle(driver.VecBarrierEnd, func() {
		l.stats.Interrupts++
		l.endQL.Push(struct{}{})
	})
	if left := l.host.Left; left != nil {
		l.ackLeft = func(pp *sim.Proc) { driver.Ack(pp, left) }
	}
	if right := l.host.Right; right != nil {
		l.ackRight = func(pp *sim.Proc) { driver.Ack(pp, right) }
	}
	if l.rxLeft != nil {
		l.relLeft = l.rxLeft.Release
	}
	if l.rxRight != nil {
		l.relRight = l.rxRight.Release
	}
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-svc:%d", l.host.ID), l.serve)
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-fwd:%d", l.host.ID), l.forward)
}

// Boot runs the paper's pre-setup exchange and validates discovery
// against the built topology.
func (l *ringLink) Boot(p *sim.Proc) {
	left, right := l.host.Boot(p)
	if left != l.host.LeftNeighbor() || right != l.host.RightNeighbor() {
		panic(fmt.Sprintf("fabric: host %d discovered neighbours (%d, %d), topology says (%d, %d)",
			l.host.ID, left, right, l.host.LeftNeighbor(), l.host.RightNeighbor()))
	}
}

// serve is the per-host service thread of Fig 5. It sleeps until a
// DMAPUT/DMAGET doorbell queues work, pays the thread wake-up cost, and
// dispatches: under the paper's protocol it reads the transfer
// information from the scratchpads and handles one message; under the
// pipelined protocol it drains every in-order slot the doorbell (or a
// coalesced batch of doorbells) announced.
func (l *ringLink) serve(p *sim.Proc) {
	for {
		port, ok := l.svcQ.TryPop()
		if !ok {
			l.setSvcActive(false)
			port = l.svcQ.Pop(p)
			p.Sleep(l.c.Par.ServiceWake)
		}
		l.setSvcActive(true)
		p.Sleep(l.c.Par.ISRCost)
		if rx := l.rxFor(port); rx != nil {
			rel := l.relRight
			if rx == l.rxLeft {
				rel = l.relLeft
			}
			for {
				info, payload, ready := rx.Next(p)
				if !ready {
					break
				}
				l.dispatch(p, info, payload, rel)
			}
			continue
		}
		info := driver.ReadInfo(p, port)
		payload := port.Inbound(info.Region, int(info.Size))
		ack := l.ackRight
		if port == l.host.Left {
			ack = l.ackLeft
		}
		l.dispatch(p, info, payload, ack)
	}
}

// rxFor returns the pipelined receiver for a port, or nil under the
// stop-and-wait protocol.
func (l *ringLink) rxFor(port *ntb.Port) *driver.PipeRx {
	switch port {
	case l.host.Left:
		return l.rxLeft
	case l.host.Right:
		return l.rxRight
	}
	return nil
}

// setSvcActive tracks whether the service thread is mid-message, for
// the barrier's inbound-drain wait.
func (l *ringLink) setSvcActive(active bool) {
	l.svcActive = active
	if !active {
		l.svcIdle.Broadcast()
	}
}

// dispatch routes one arrived message: transit chunks are staged and
// relayed ("bypass data via transfer buffer", Fig 4), chunks addressed
// here go up to the runtime's handler.
func (l *ringLink) dispatch(p *sim.Proc, info driver.Info, payload []byte, ack func(*sim.Proc)) {
	if int(info.Dst) != l.host.ID {
		// Not for me: stage the payload, release the upstream link, and
		// queue the chunk for relay.
		var data []byte
		if info.Size > 0 {
			data = l.pool.get(int(info.Size))
			p.Sleep(sim.BytesAt(int(info.Size), l.c.Par.MemcpyBW))
			copy(data, payload)
		}
		ack(p)
		l.enqueueForward(info, data)
		return
	}
	l.deliver(p, info, payload, ack)
}

// enqueueForward hands a message to the forwarder thread. Callable from
// process or scheduler context.
func (l *ringLink) enqueueForward(info driver.Info, data []byte) {
	l.fwdBusy++
	l.fwdQ.Push(&fwdMsg{info: info, data: data})
}

// forward is the relay half of the service path: it pushes staged chunks
// one hop onward in their recorded direction. Relays are stop-and-wait
// like first-hop sends, but the unbounded staging queue decouples them
// from upstream ACKs, so rings cannot deadlock on store-and-forward
// cycles.
func (l *ringLink) forward(p *sim.Proc) {
	for {
		m, ok := l.fwdQ.TryPop()
		if !ok {
			m = l.fwdQ.Pop(p)
			p.Sleep(l.c.Par.ServiceWake)
		}
		tx, nextHop := l.txToward(m.info.Dir)
		info := m.info
		info.Region = l.regionFor(int(info.Dst), nextHop)
		tx.SendChunk(p, info, driver.Payload{Buf: m.data, N: len(m.data)}, l.opts.Mode)
		if m.data != nil {
			l.pool.put(m.data)
		}
		l.stats.ChunksForwarded++
		l.fwdBusy--
		if l.fwdBusy == 0 {
			l.fwdIdle.Broadcast()
		}
	}
}

// Send routes one first-hop chunk: pick the travel direction at the
// origin, the transmit channel for it, and the inbound region at the
// next hop, then push the chunk stop-and-wait (or into a pipe slot).
func (l *ringLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	dir := l.dirTo(int(info.Dst))
	tx, nextHop := l.txToward(dir)
	info.Dir = dir
	info.Region = l.regionFor(int(info.Dst), nextHop)
	tx.SendChunk(p, info, payload, l.opts.Mode)
}

// Reply sends a response back the way the request came: get replies and
// AMO replies retrace the request path leftward (or rightward, under
// shortest-arc routing of the request). The reply is staged on the
// forwarder so the service thread never blocks on a transmit channel —
// two hosts replying to each other simultaneously would deadlock.
func (l *ringLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = oppositeDir(orig.Dir)
	l.enqueueForward(reply, data)
}

// drainForwarder blocks until every staged chunk on this host has been
// relayed. The barrier protocols call it before propagating their tokens,
// which is what makes "barrier implies prior puts are delivered" hold on
// the ring (the paper's "check previous DMA transfer completed" step).
func (l *ringLink) drainForwarder(p *sim.Proc) {
	for l.fwdBusy > 0 {
		l.fwdIdle.Wait(p)
	}
}

// drainService blocks until the service thread has consumed every
// queued inbound message and gone idle. Under the pipelined protocol a
// sender's chunks may still sit unprocessed in this host's window when a
// barrier token arrives, so the token must not be propagated past them.
func (l *ringLink) drainService(p *sim.Proc) {
	for l.svcQ.Len() > 0 || l.svcActive {
		l.svcIdle.Wait(p)
	}
}

// Drain flushes this host's inbound service work and then its relay
// queue — the full "everything that reached me has moved on" step the
// barrier protocols interpose before propagating tokens. Service
// handling can enqueue relay work but never the reverse, so this order
// suffices.
func (l *ringLink) Drain(p *sim.Proc) {
	l.drainService(p)
	l.drainForwarder(p)
}

// Barrier is the paper's two-round protocol (Fig 6): host 0 sends
// BARRIER_START rightward; each host forwards it after flushing its own
// relay queue; when the start round returns to host 0 it launches the
// BARRIER_END round the same way, and hosts release as the end passes.
//
// The per-hop flush is what upgrades the barrier from synchronisation to
// delivery: a host only propagates the token once every chunk staged on
// it has been pushed one hop (and acknowledged — for a final hop that
// means copied into the destination heap). Induction along the token's
// path flushes every chain that runs in the token's direction, so under
// shortest-path routing a second, leftward round is required for the
// leftward chains.
func (l *ringLink) Barrier(p *sim.Proc) bool {
	l.ringRound(p, driver.DirRight)
	if l.opts.Routing == RouteShortest {
		l.ringRound(p, driver.DirLeft)
	}
	return true
}

// ringRound circulates one start round and one end round in the given
// direction.
func (l *ringLink) ringRound(p *sim.Proc, dir driver.Dir) {
	out := l.host.RightEP
	startQ, endQ := l.startQ, l.endQ
	if dir == driver.DirLeft {
		out = l.host.LeftEP
		startQ, endQ = l.startQL, l.endQL
	}
	if l.host.ID == 0 {
		out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, startQ)
		l.Drain(p)
		out.Ring(p, driver.VecBarrierEnd)
		l.waitToken(p, endQ)
	} else {
		l.waitToken(p, startQ)
		l.Drain(p)
		out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, endQ)
		out.Ring(p, driver.VecBarrierEnd)
	}
}

// Sync is the ring doorbell protocol without the relay flush: pure
// synchronisation, no delivery guarantee. It exists so the ablation can
// price the flush.
func (l *ringLink) Sync(p *sim.Proc) bool {
	out := l.host.RightEP
	if l.host.ID == 0 {
		out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.startQ)
		out.Ring(p, driver.VecBarrierEnd)
		l.waitToken(p, l.endQ)
	} else {
		l.waitToken(p, l.startQ)
		out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.endQ)
		out.Ring(p, driver.VecBarrierEnd)
	}
	return true
}

// waitToken blocks on a doorbell-token queue and charges the application
// thread wake-up cost.
func (l *ringLink) waitToken(p *sim.Proc, q *sim.Queue[struct{}]) {
	q.Pop(p)
	p.Sleep(l.c.Par.AppWake)
}

// txToward returns the transmit channel and next-hop host Id for a
// direction.
func (l *ringLink) txToward(d driver.Dir) (driver.Sender, int) {
	if d == driver.DirLeft {
		return l.txLeft, l.host.LeftNeighbor()
	}
	return l.txRight, l.host.RightNeighbor()
}

// regionFor picks the inbound window at the next hop: the data window
// when the next hop is the final destination, the bypass window when the
// chunk must be relayed again (Fig 4).
func (l *ringLink) regionFor(finalDst, nextHop int) ntb.Region {
	if finalDst == nextHop {
		return ntb.RegionData
	}
	return ntb.RegionBypass
}

// dirTo returns the routing direction from this host toward dst. Under
// the paper's policy data always travels rightward; under RouteShortest
// it takes the shorter arc (ties rightward). Once chosen at the origin,
// the direction is carried in the message and forwarding never reverses
// it.
func (l *ringLink) dirTo(dst int) driver.Dir {
	if l.opts.Routing == RouteShortest {
		n := l.c.N()
		right := (dst - l.host.ID + n) % n
		if left := n - right; left < right {
			return driver.DirLeft
		}
	}
	return driver.DirRight
}

func oppositeDir(d driver.Dir) driver.Dir {
	if d == driver.DirLeft {
		return driver.DirRight
	}
	return driver.DirLeft
}

// Stats reports the link's doorbell and relay counters.
func (l *ringLink) Stats() LinkStats { return l.stats }

// AssertQuiescent panics unless the link has fully drained — the shared
// precondition of Reset and Snapshot.
func (l *ringLink) AssertQuiescent(op string) {
	if l.svcActive || l.svcQ.Len() != 0 || l.fwdBusy != 0 || l.fwdQ.Len() != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with service work outstanding", op, l.host.ID))
	}
	if n := l.startQ.Len() + l.endQ.Len() + l.startQL.Len() + l.endQL.Len(); n != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with %d barrier token(s) queued", op, l.host.ID, n))
	}
}

// Reset returns the link to its just-constructed state. The stop-and-wait
// TxChannels and the NTB ports are reset by Cluster.Reset; the pipelined
// cursors live here.
func (l *ringLink) Reset() {
	l.stats = LinkStats{}
	if tx, ok := l.txLeft.(*driver.PipeTx); ok {
		tx.Reset()
	}
	if tx, ok := l.txRight.(*driver.PipeTx); ok {
		tx.Reset()
	}
	if l.rxLeft != nil {
		l.rxLeft.Reset()
		l.rxRight.Reset()
	}
}

// ringLinkSnap captures a ring link's mutable state: activity counters
// plus the pipelined protocol's slot cursors when enabled.
type ringLinkSnap struct {
	stats           LinkStats
	txLeft, txRight *driver.PipeTxSnapshot
	rxLeft, rxRight *driver.PipeRxSnapshot
}

func (l *ringLink) Snapshot() any {
	s := &ringLinkSnap{stats: l.stats}
	if tx, ok := l.txLeft.(*driver.PipeTx); ok {
		snap := tx.Snapshot()
		s.txLeft = &snap
	}
	if tx, ok := l.txRight.(*driver.PipeTx); ok {
		snap := tx.Snapshot()
		s.txRight = &snap
	}
	if l.rxLeft != nil {
		lsnap := l.rxLeft.Snapshot()
		rsnap := l.rxRight.Snapshot()
		s.rxLeft, s.rxRight = &lsnap, &rsnap
	}
	return s
}

func (l *ringLink) Restore(snap any) {
	s := snap.(*ringLinkSnap)
	l.stats = s.stats
	if s.txLeft != nil {
		l.txLeft.(*driver.PipeTx).Restore(*s.txLeft)
	}
	if s.txRight != nil {
		l.txRight.(*driver.PipeTx).Restore(*s.txRight)
	}
	if s.rxLeft != nil {
		l.rxLeft.Restore(*s.rxLeft)
		l.rxRight.Restore(*s.rxRight)
	}
}

// GetBuf borrows a staging buffer of at least n bytes from the host's
// pool; PutBuf returns it.
func (l *ringLink) GetBuf(n int) []byte { return l.pool.get(n) }
func (l *ringLink) PutBuf(b []byte)     { l.pool.put(b) }
