package main

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Layer probes: each times direct calls to one layer's exported
// functions on a minimal rig, outside any world, and runs only in the
// traced invocation. A probe reports the median over probeTrials of
// host nanoseconds per operation.

const probeTrials = 5

// probe runs trial probeTrials times and reports the median of the
// per-op nanoseconds it returns, under a span named after the metric.
func probe(r *run, name string, trial func() (time.Duration, int)) {
	sp := r.begin("probe."+name, -1)
	var ns []float64
	for i := 0; i < probeTrials; i++ {
		d, ops := trial()
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
	}
	r.end(sp)
	r.setLayer(name, layerUnit(name), median(ns), probeTrials)
}

// runSim runs s to completion, timing it; a probe rig that fails to
// run is a bug in the probe or the layer, so it panics.
func runSim(s *sim.Simulator) time.Duration {
	t0 := time.Now()
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("perfbench: probe rig failed: %v", err))
	}
	d := time.Since(t0)
	s.Shutdown()
	return d
}

// portPair is two connected NTB ports on one simulator.
func portPair(par *model.Params) (*sim.Simulator, *ntb.Port, *ntb.Port) {
	s := sim.New()
	net := pcie.NewNetwork(s)
	a := ntb.NewPort("A", s, net, par, pcie.NewServer("rcA", par.RootComplexBW))
	b := ntb.NewPort("B", s, net, par, pcie.NewServer("rcB", par.RootComplexBW))
	ntb.Connect(a, b)
	return s, a, b
}

// runProbes measures every layer probe; buildHosts is the ring size
// whose fabric.New the fabric.build_s probe times.
func runProbes(r *run, buildHosts int) {
	par := model.Default()

	// sim: one process yielding n times is n resume+yield round trips
	// through the event queue.
	probe(r, "sim.switch_ns", func() (time.Duration, int) {
		const n = 20000
		s := sim.New()
		s.Go("yield", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Yield()
			}
		})
		return runSim(s), n
	})

	// pcie: two processes streaming transfers that share one server, so
	// every start and completion re-solves a contended flow set.
	probe(r, "pcie.flow_ns", func() (time.Duration, int) {
		const n = 5000
		s := sim.New()
		net := pcie.NewNetwork(s)
		shared := pcie.NewServer("core", par.RootComplexBW)
		for i := 0; i < 2; i++ {
			own := pcie.NewServer(fmt.Sprintf("rc%d", i), par.RootComplexBW)
			route := net.NewRoute(own, shared)
			s.Go("flows", func(p *sim.Proc) {
				for k := 0; k < n; k++ {
					net.TransferRoute(p, int64(4096+1024*i), par.DMAEngineBW, route)
				}
			})
		}
		return runSim(s), 2 * n
	})

	// ntb: peer scratchpad write+read pairs, then 4 KiB DMA descriptors.
	probe(r, "ntb.spad_ns", func() (time.Duration, int) {
		const n = 10000
		s, a, _ := portPair(par)
		s.Go("spad", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.PeerSpadWrite(p, i%par.SpadCount, uint32(i))
				a.PeerSpadRead(p, i%par.SpadCount)
			}
		})
		return runSim(s), 2 * n
	})
	probe(r, "ntb.dma_ns", func() (time.Duration, int) {
		const n = 5000
		s, a, _ := portPair(par)
		buf := make([]byte, 4096)
		s.Go("dma", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a.DMA().SubmitWait(p, ntb.Desc{Region: ntb.RegionData, Src: buf, Bytes: len(buf)})
			}
		})
		return runSim(s), n
	})

	// driver: 4 KiB stop-and-wait chunks over a TxChannel, acknowledged
	// by a minimal service process on the far side.
	probe(r, "driver.chunk_ns", func() (time.Duration, int) {
		const n = 3000
		s, a, b := portPair(par)
		epA, epB := driver.NewEndpoint(a), driver.NewEndpoint(b)
		tx := driver.NewTxChannel(epA, par)
		q := sim.NewQueue[int]("svc")
		epB.Handle(driver.VecPut, func() { q.Push(driver.VecPut) })
		s.GoDaemon("svc", func(p *sim.Proc) {
			for {
				q.Pop(p)
				driver.ReadInfo(p, b)
				driver.Ack(p, b)
			}
		})
		buf := make([]byte, 4096)
		s.Go("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				info := driver.Info{Kind: driver.KindPut, Src: 0, Dst: 1, Region: ntb.RegionData, Size: uint32(len(buf))}
				tx.SendChunk(p, info, driver.Payload{Buf: buf, N: len(buf)}, driver.ModeDMA)
			}
		})
		return runSim(s), n
	})

	// fabric: 4 KiB messages through a booted two-host ring's Links,
	// delivered to a handler that acknowledges at once.
	probe(r, "fabric.msg_ns", func() (time.Duration, int) {
		const n = 3000
		c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: par, Hosts: 2, Kind: fabric.KindNTBRing})
		if err != nil {
			panic(err)
		}
		links, err := c.Links(fabric.LinkOptions{Mode: driver.ModeDMA})
		if err != nil {
			panic(err)
		}
		for _, l := range links {
			l.Start(func(p *sim.Proc, _ driver.Info, _ []byte, ack func(*sim.Proc)) { ack(p) })
		}
		buf := make([]byte, 4096)
		for i, l := range links {
			c.Sim.Go("host", func(p *sim.Proc) {
				l.Boot(p)
				if i != 0 {
					return
				}
				for k := 0; k < n; k++ {
					info := driver.Info{Kind: driver.KindPut, Src: 0, Dst: 1, Size: uint32(len(buf))}
					l.Send(p, info, driver.Payload{Buf: buf, N: len(buf)})
				}
			})
		}
		return runSim(c.Sim), n
	})

	// fabric.build_s: constructing the workload's own topology.
	sp := r.begin("probe.fabric.build_s", -1)
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := fabric.New(fabric.Config{Sim: sim.New(), Par: par, Hosts: buildHosts, Kind: fabric.KindNTBRing})
		builds = append(builds, time.Since(t0).Seconds())
		if err != nil {
			panic(err)
		}
		c.ShutdownSim()
	}
	r.end(sp)
	r.setLayer("fabric.build_s", "s", median(builds), len(builds))

	// mem: allocate/free cycles over a symmetric heap, and
	// snapshot-fork cycles (fork, first write privatizes a chunk, reset).
	probe(r, "mem.alloc_ns", func() (time.Duration, int) {
		const n, batch = 200, 64
		h := mem.NewHeap(par.SymHeapChunk, par.SymHeapMax)
		offs := make([]int64, batch)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for k := range offs {
				off, err := h.Alloc(64 << (k % 8))
				if err != nil {
					panic(err)
				}
				offs[k] = off
			}
			for _, off := range offs {
				if err := h.Free(off); err != nil {
					panic(err)
				}
			}
		}
		return time.Since(t0), n * batch
	})
	probe(r, "mem.fork_ns", func() (time.Duration, int) {
		const n = 100
		parent := mem.NewHeap(par.SymHeapChunk, par.SymHeapMax)
		off, err := parent.Alloc(1 << 20)
		if err != nil {
			panic(err)
		}
		parent.Write(off, make([]byte, 1<<20))
		snap := parent.Snapshot()
		child := mem.NewHeap(par.SymHeapChunk, par.SymHeapMax)
		word := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			child.Fork(snap)
			child.Write(off, word)
			child.Reset()
		}
		return time.Since(t0), n
	})
}
