package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ntb"
	"repro/internal/sim"
)

// pairLink attaches one host of the two-host independent NTB pair (the
// Fig 8 baseline wiring) to the runtime. Host 0 reaches its peer through
// its right adapter, host 1 through its left; there is exactly one cable,
// so every message is single-hop: no relay staging, no bypass window, no
// routing decision. The service-thread/forwarder split is kept anyway —
// replies generated inside the service thread must not block on the
// transmit channel, or two hosts answering each other's gets deadlock.
type pairLink struct {
	c       *Cluster    // reset: keep; snap: keep — construction identity
	host    *Host       // reset: keep; snap: keep — construction identity
	opts    LinkOptions // reset: keep; snap: keep — construction identity
	deliver Handler     // reset: keep; snap: keep — installed handler survives recycling and forking

	// The single cabled side.
	out *driver.Endpoint  // reset: keep; snap: keep — construction identity
	tx  *driver.TxChannel // reset: keep; snap: keep — reset by Cluster.Reset
	fwd driver.Dir        // reset: keep; snap: keep — Dir this host's sends carry
	ack func(*sim.Proc)   // reset: keep; snap: keep — construction identity; built once in Start so serve stays allocation-free

	svcQ      *sim.Queue[*ntb.Port] // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	svcActive bool                  // reset: keep; snap: keep — AssertQuiescent guarantees false (service drained)
	svcIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	fwdQ      *sim.Queue[*fwdMsg]   // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	fwdBusy   int                   // reset: keep; snap: keep — AssertQuiescent guarantees zero
	fwdIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	pool      bufPool               // reset: keep; snap: keep — warm staging buffers hold no simulation state

	// Doorbell barrier tokens (the Fig 6 protocol degenerated to one hop).
	startQ, endQ *sim.Queue[struct{}] // reset: keep; snap: keep — AssertQuiescent guarantees them drained

	stats LinkStats
}

func newPairLink(c *Cluster, h *Host, opts LinkOptions) *pairLink {
	l := &pairLink{
		c:       c,
		host:    h,
		opts:    opts,
		svcQ:    sim.NewQueue[*ntb.Port](hostName("svc:", h.ID)),
		svcIdle: sim.NewCond(hostName("svc-idle:", h.ID)),
		fwdQ:    sim.NewQueue[*fwdMsg](hostName("fwd:", h.ID)),
		fwdIdle: sim.NewCond(hostName("fwd-idle:", h.ID)),
		startQ:  sim.NewQueue[struct{}](hostName("barrier-start:", h.ID)),
		endQ:    sim.NewQueue[struct{}](hostName("barrier-end:", h.ID)),
		pool:    bufPool{par: c.Par},
	}
	if h.ID == 0 {
		l.out, l.tx, l.fwd = h.RightEP, h.TxRight, driver.DirRight
	} else {
		l.out, l.tx, l.fwd = h.LeftEP, h.TxLeft, driver.DirLeft
	}
	return l
}

// Start wires the doorbell vectors of the single adapter and spawns the
// service and forwarder threads.
func (l *pairLink) Start(deliver Handler) {
	l.deliver = deliver
	dataVec := func() {
		l.stats.Interrupts++
		l.svcQ.Push(l.out.Port)
	}
	l.out.Handle(driver.VecPut, dataVec)
	l.out.Handle(driver.VecGet, dataVec)
	l.out.Handle(driver.VecBarrierStart, func() {
		l.stats.Interrupts++
		l.startQ.Push(struct{}{})
	})
	l.out.Handle(driver.VecBarrierEnd, func() {
		l.stats.Interrupts++
		l.endQ.Push(struct{}{})
	})
	port := l.out.Port
	l.ack = func(pp *sim.Proc) { driver.Ack(pp, port) }
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-svc:%d", l.host.ID), l.serve)
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-fwd:%d", l.host.ID), l.forward)
}

// Boot runs the pre-setup exchange over the single cable and validates
// the discovered peer.
func (l *pairLink) Boot(p *sim.Proc) {
	left, right := l.host.Boot(p)
	peer := 1 - l.host.ID
	got := right
	if l.host.ID == 1 {
		got = left
	}
	if got != peer {
		panic(fmt.Sprintf("fabric: host %d discovered peer %d, topology says %d", l.host.ID, got, peer))
	}
}

// serve is the per-host service thread: identical cost structure to the
// ring's (Fig 5), minus the transit case — every arriving message is
// addressed here.
func (l *pairLink) serve(p *sim.Proc) {
	for {
		port, ok := l.svcQ.TryPop()
		if !ok {
			l.setSvcActive(false)
			port = l.svcQ.Pop(p)
			p.Sleep(l.c.Par.ServiceWake)
		}
		l.setSvcActive(true)
		p.Sleep(l.c.Par.ISRCost)
		info := driver.ReadInfo(p, port)
		payload := port.Inbound(info.Region, int(info.Size))
		if int(info.Dst) != l.host.ID {
			panic(fmt.Sprintf("fabric: pair host %d received a chunk addressed to host %d", l.host.ID, info.Dst))
		}
		l.deliver(p, info, payload, l.ack)
	}
}

func (l *pairLink) setSvcActive(active bool) {
	l.svcActive = active
	if !active {
		l.svcIdle.Broadcast()
	}
}

// forward pushes service-thread replies out the single cable, decoupling
// the service loop from the stop-and-wait ACK.
func (l *pairLink) forward(p *sim.Proc) {
	for {
		m, ok := l.fwdQ.TryPop()
		if !ok {
			m = l.fwdQ.Pop(p)
			p.Sleep(l.c.Par.ServiceWake)
		}
		l.tx.SendChunk(p, m.info, driver.Payload{Buf: m.data, N: len(m.data)}, l.opts.Mode)
		if m.data != nil {
			l.pool.put(m.data)
		}
		l.fwdBusy--
		if l.fwdBusy == 0 {
			l.fwdIdle.Broadcast()
		}
	}
}

// Send pushes one chunk across the single cable, stop-and-wait. The
// chunk is delivered (copied into the peer's heap and acknowledged)
// before Send returns.
func (l *pairLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	info.Dir = l.fwd
	info.Region = ntb.RegionData
	l.tx.SendChunk(p, info, payload, l.opts.Mode)
}

// Reply stages a response on the forwarder; on a pair the way back is
// the way everything goes.
func (l *pairLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = l.fwd
	reply.Region = ntb.RegionData
	l.fwdBusy++
	l.fwdQ.Push(&fwdMsg{info: reply, data: data})
}

// Drain flushes queued inbound service work and staged replies.
func (l *pairLink) Drain(p *sim.Proc) {
	for l.svcQ.Len() > 0 || l.svcActive {
		l.svcIdle.Wait(p)
	}
	for l.fwdBusy > 0 {
		l.fwdIdle.Wait(p)
	}
}

// Barrier is the ring doorbell protocol collapsed to one hop: host 0
// rings BARRIER_START, host 1 drains and rings it back, host 0 drains
// and launches the END round. Sends are delivery-synchronous on a pair,
// so the drains only flush replies still staged on the forwarder.
func (l *pairLink) Barrier(p *sim.Proc) bool {
	if l.host.ID == 0 {
		l.out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.startQ)
		l.Drain(p)
		l.out.Ring(p, driver.VecBarrierEnd)
		l.waitToken(p, l.endQ)
	} else {
		l.waitToken(p, l.startQ)
		l.Drain(p)
		l.out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.endQ)
		l.out.Ring(p, driver.VecBarrierEnd)
	}
	return true
}

// Sync is the doorbell exchange without the drain.
func (l *pairLink) Sync(p *sim.Proc) bool {
	if l.host.ID == 0 {
		l.out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.startQ)
		l.out.Ring(p, driver.VecBarrierEnd)
		l.waitToken(p, l.endQ)
	} else {
		l.waitToken(p, l.startQ)
		l.out.Ring(p, driver.VecBarrierStart)
		l.waitToken(p, l.endQ)
		l.out.Ring(p, driver.VecBarrierEnd)
	}
	return true
}

func (l *pairLink) waitToken(p *sim.Proc, q *sim.Queue[struct{}]) {
	q.Pop(p)
	p.Sleep(l.c.Par.AppWake)
}

// Stats reports the link's doorbell counter (nothing is ever forwarded).
func (l *pairLink) Stats() LinkStats { return l.stats }

// AssertQuiescent panics unless the link has fully drained.
func (l *pairLink) AssertQuiescent(op string) {
	if l.svcActive || l.svcQ.Len() != 0 || l.fwdBusy != 0 || l.fwdQ.Len() != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with service work outstanding", op, l.host.ID))
	}
	if n := l.startQ.Len() + l.endQ.Len(); n != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with %d barrier token(s) queued", op, l.host.ID, n))
	}
}

// Reset returns the link to its just-constructed state (the TxChannel
// and NTB port are reset by Cluster.Reset).
func (l *pairLink) Reset() {
	l.stats = LinkStats{}
}

// pairLinkSnap captures a pair link's mutable state.
type pairLinkSnap struct {
	stats LinkStats
}

func (l *pairLink) Snapshot() any { return &pairLinkSnap{stats: l.stats} }

func (l *pairLink) Restore(snap any) {
	l.stats = snap.(*pairLinkSnap).stats
}

// GetBuf borrows a staging buffer of at least n bytes from the host's
// pool; PutBuf returns it.
func (l *pairLink) GetBuf(n int) []byte { return l.pool.get(n) }
func (l *pairLink) PutBuf(b []byte)     { l.pool.put(b) }
