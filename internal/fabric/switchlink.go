package fabric

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// MaxSwitchHosts is the downstream port count of the modelled PCIe
// switch (a large multi-port part; also what keeps the per-peer
// requester-ID scheme within its 8-bit fields).
const MaxSwitchHosts = 64

// NewSwitch builds a PCIe-switch fabric of n hosts: every host pair is
// joined by a dedicated NTB port pair whose traffic is routed through
// the host's uplink and the shared switch core, so any pair can talk
// peer-to-peer in one hop while all pairs contend for the core's
// bandwidth in the flow network — the contention profile that
// distinguishes a switched fabric from the ring's per-cable wires.
func NewSwitch(s *sim.Simulator, par *model.Params, n int) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("fabric: a switched fabric needs at least 2 hosts, got %d", n)
	}
	if n > MaxSwitchHosts {
		return nil, fmt.Errorf("fabric: %d hosts exceed the modelled switch's %d downstream ports", n, MaxSwitchHosts)
	}
	c := newCluster(s, par, n, KindPCIeSwitch)
	core := pcie.NewServer("switch-core", par.SwitchCoreBW)
	uplinks := make([]*pcie.Server, n)
	for i, h := range c.Hosts {
		uplinks[i] = pcie.NewServer(hostName("uplink:h", i), par.EffectiveWireBW())
		h.Mesh = make([]*ntb.Port, n)
		h.MeshEP = make([]*driver.Endpoint, n)
		h.MeshTx = make([]*driver.TxChannel, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pi := ntb.NewPort(fmt.Sprintf("h%d.m%d", i, j), s, c.Net, par, c.Hosts[i].RC)
			pj := ntb.NewPort(fmt.Sprintf("h%d.m%d", j, i), s, c.Net, par, c.Hosts[j].RC)
			// Host i's port facing j: (i+1) in the high byte, (j+1) in
			// the low — unique across the fabric, never the unconfigured
			// zero, and disjoint from the ring scheme's shifted Ids.
			pi.SetRequesterID(uint16(i+1)<<8 | uint16(j+1))
			pj.SetRequesterID(uint16(j+1)<<8 | uint16(i+1))
			ntb.ConnectVia(pi, pj, uplinks[i], core, uplinks[j])
			c.Hosts[i].Mesh[j] = pi
			c.Hosts[j].Mesh[i] = pj
		}
	}
	for _, h := range c.Hosts {
		for j, port := range h.Mesh {
			if port != nil {
				h.MeshEP[j] = driver.NewEndpoint(port)
				h.MeshTx[j] = driver.NewTxChannel(h.MeshEP[j], par)
			}
		}
	}
	return c, nil
}

// switchLink attaches one host of the switched fabric. Every message is
// single-hop through the switch — no relay staging, no routing decision,
// no bypass window — but the NTB protocol machinery is unchanged: each
// per-peer port has its stop-and-wait channel, doorbell announcement,
// and one shared service thread consuming arrivals in doorbell order.
// The switch has no ring to circulate barrier tokens around, so Barrier
// and Sync report false and the runtime's dissemination fallback runs
// over Send — sound here because sends are delivery-synchronous.
type switchLink struct {
	c       *Cluster    // reset: keep; snap: keep — construction identity
	host    *Host       // reset: keep; snap: keep — construction identity
	opts    LinkOptions // reset: keep; snap: keep — construction identity
	deliver Handler     // reset: keep; snap: keep — installed handler survives recycling and forking

	svcQ      *sim.Queue[*ntb.Port] // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	svcActive bool                  // reset: keep; snap: keep — AssertQuiescent guarantees false (service drained)
	svcIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	fwdQ      *sim.Queue[*fwdMsg]   // reset: keep; snap: keep — AssertQuiescent guarantees it drained
	fwdBusy   int                   // reset: keep; snap: keep — AssertQuiescent guarantees zero
	fwdIdle   *sim.Cond             // reset: keep; snap: keep — no waiters survive a clean run
	pool      bufPool               // reset: keep; snap: keep — warm staging buffers hold no simulation state

	// Per-port ack thunks, built once in Start: a closure literal in
	// serve's loop escapes through the indirect deliver handler and
	// allocates per message (see ringLink for the same pattern).
	acks map[*ntb.Port]func(*sim.Proc) // reset: keep; snap: keep — construction identity, no simulation state

	stats LinkStats
}

func newSwitchLink(c *Cluster, h *Host, opts LinkOptions) *switchLink {
	return &switchLink{
		c:       c,
		host:    h,
		opts:    opts,
		svcQ:    sim.NewQueue[*ntb.Port](hostName("svc:", h.ID)),
		svcIdle: sim.NewCond(hostName("svc-idle:", h.ID)),
		fwdQ:    sim.NewQueue[*fwdMsg](hostName("fwd:", h.ID)),
		fwdIdle: sim.NewCond(hostName("fwd-idle:", h.ID)),
		pool:    bufPool{par: c.Par},
	}
}

// Start wires the data doorbells of every per-peer port and spawns the
// service and forwarder threads.
func (l *switchLink) Start(deliver Handler) {
	l.deliver = deliver
	dataVec := func(port *ntb.Port) func() {
		return func() {
			l.stats.Interrupts++
			l.svcQ.Push(port)
		}
	}
	l.acks = make(map[*ntb.Port]func(*sim.Proc), len(l.host.MeshEP))
	for _, ep := range l.host.MeshEP {
		if ep == nil {
			continue
		}
		ep.Handle(driver.VecPut, dataVec(ep.Port))
		ep.Handle(driver.VecGet, dataVec(ep.Port))
		port := ep.Port
		l.acks[port] = func(pp *sim.Proc) { driver.Ack(pp, port) }
	}
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-svc:%d", l.host.ID), l.serve)
	l.c.Sim.GoDaemon(fmt.Sprintf("shmem-fwd:%d", l.host.ID), l.forward)
}

// Boot programs every mesh port's LUT with its peer, publishes this
// host's Id to all peers, and polls for theirs — the ring boot exchange
// generalised to a full mesh, in increasing peer order.
func (l *switchLink) Boot(p *sim.Proc) {
	h := l.host
	for _, port := range h.Mesh {
		if port != nil {
			port.LUTAdd(p, port.Peer().RequesterID())
		}
	}
	for _, port := range h.Mesh {
		if port != nil {
			port.PeerSpadWrite(p, driver.SpadBoot, uint32(h.ID)+1)
		}
	}
	for peer, port := range h.Mesh {
		if port == nil {
			continue
		}
		for {
			if v := port.SpadRead(p, driver.SpadBoot); v != 0 {
				if int(v)-1 != peer {
					panic(fmt.Sprintf("fabric: host %d discovered host %d behind its port to %d",
						h.ID, int(v)-1, peer))
				}
				break
			}
			p.Sleep(sim.Microseconds(1))
		}
	}
}

// serve is the shared service thread: one per host, consuming arrivals
// from every peer port in doorbell order.
func (l *switchLink) serve(p *sim.Proc) {
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
			panic(fmt.Sprintf("fabric: switch host %d received a chunk addressed to host %d", l.host.ID, info.Dst))
		}
		l.deliver(p, info, payload, l.acks[port])
	}
}

func (l *switchLink) setSvcActive(active bool) {
	l.svcActive = active
	if !active {
		l.svcIdle.Broadcast()
	}
}

// forward pushes service-thread replies out the requester's port,
// decoupling the service loop from the stop-and-wait ACK (two hosts
// answering each other's gets would otherwise deadlock).
func (l *switchLink) forward(p *sim.Proc) {
	for {
		m, ok := l.fwdQ.TryPop()
		if !ok {
			m = l.fwdQ.Pop(p)
			p.Sleep(l.c.Par.ServiceWake)
		}
		tx := l.host.MeshTx[int(m.info.Dst)]
		tx.SendChunk(p, m.info, driver.Payload{Buf: m.data, N: len(m.data)}, l.opts.Mode)
		if m.data != nil {
			l.pool.put(m.data)
		}
		l.fwdBusy--
		if l.fwdBusy == 0 {
			l.fwdIdle.Broadcast()
		}
	}
}

// Send pushes one chunk through the switch to its destination's port,
// stop-and-wait. The chunk is delivered (copied into the peer's heap
// and acknowledged) before Send returns.
func (l *switchLink) Send(p *sim.Proc, info driver.Info, payload driver.Payload) {
	info.Dir = driver.DirRight
	info.Region = ntb.RegionData
	l.host.MeshTx[int(info.Dst)].SendChunk(p, info, payload, l.opts.Mode)
}

// Reply stages a response on the forwarder for single-hop return.
func (l *switchLink) Reply(p *sim.Proc, orig driver.Info, reply driver.Info, data []byte) {
	reply.Dir = driver.DirRight
	reply.Region = ntb.RegionData
	l.fwdBusy++
	l.fwdQ.Push(&fwdMsg{info: reply, data: data})
}

// Drain flushes queued inbound service work and staged replies.
func (l *switchLink) Drain(p *sim.Proc) {
	for l.svcQ.Len() > 0 || l.svcActive {
		l.svcIdle.Wait(p)
	}
	for l.fwdBusy > 0 {
		l.fwdIdle.Wait(p)
	}
}

// Barrier reports false: the switch has no token ring, so the runtime's
// dissemination barrier runs over Send (delivery-synchronous here).
func (l *switchLink) Barrier(p *sim.Proc) bool { return false }

// Sync reports false for the same reason.
func (l *switchLink) Sync(p *sim.Proc) bool { return false }

// Stats reports the link's doorbell counter (nothing is ever relayed).
func (l *switchLink) Stats() LinkStats { return l.stats }

// AssertQuiescent panics unless the link has fully drained.
func (l *switchLink) AssertQuiescent(op string) {
	if l.svcActive || l.svcQ.Len() != 0 || l.fwdBusy != 0 || l.fwdQ.Len() != 0 {
		panic(fmt.Sprintf("fabric: %s of host %d with service work outstanding", op, l.host.ID))
	}
}

// Reset returns the link to its just-constructed state (ports and
// channels are reset by Cluster.Reset).
func (l *switchLink) Reset() {
	l.stats = LinkStats{}
}

// switchLinkSnap captures a switch link's mutable state.
type switchLinkSnap struct {
	stats LinkStats
}

func (l *switchLink) Snapshot() any { return &switchLinkSnap{stats: l.stats} }

func (l *switchLink) Restore(snap any) {
	l.stats = snap.(*switchLinkSnap).stats
}

// GetBuf borrows a staging buffer of at least n bytes from the host's
// pool; PutBuf returns it.
func (l *switchLink) GetBuf(n int) []byte { return l.pool.get(n) }
func (l *switchLink) PutBuf(b []byte)     { l.pool.put(b) }
