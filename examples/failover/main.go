// failover: link-failure detection on the switchless ring.
//
// NTB's historical role — the paper notes — was "mainly to check
// connected host processors such as with heartbeating". This example
// runs heartbeats on every cable of the ring, yanks one cable mid-run,
// and shows (a) both endpoints of the dead cable detecting the loss
// within a bounded number of intervals, and (b) traffic that avoids the
// dead segment still flowing under shortest-arc routing.
//
// Run with: go run ./examples/failover [-hosts N]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	ntbshmem "repro"
)

func main() {
	hosts := flag.Int("hosts", 4, "ring size")
	flag.Parse()

	job := ntbshmem.NewJob(ntbshmem.Config{Hosts: *hosts, Routing: ntbshmem.RouteShortest})
	sim := job.Cluster.Sim

	interval := 200 * ntbshmem.Duration(1000) // 200us in virtual ns
	var detections []string
	job.StartHeartbeats(interval, 3, func(host int, side string) {
		detections = append(detections,
			fmt.Sprintf("[t=%v] host %d: %s cable lost", sim.Now(), host, side))
	})

	var delivered string
	job.World.Launch(func(p *ntbshmem.Proc, pe *ntbshmem.PE) {
		sym := pe.MustMalloc(p, 32)
		pe.BarrierAll(p) // everyone is quiescent before the fault
		if pe.ID() != 1 {
			return
		}
		fmt.Printf("[t=%v] operator: cutting the cable between host 1 and host 2\n", p.Now())
		if err := job.CutLink(1); err != nil {
			log.Fatal(err)
		}
		// Give the heartbeat monitors time to notice, then keep working
		// around the hole: host 0 is still reachable leftward.
		p.Sleep(3_000_000)
		pe.PutBytes(p, 0, sym, []byte("still alive via the left arc!!!!"))
		buf := make([]byte, 32)
		pe.GetBytes(p, 0, sym, buf)
		delivered = string(buf)
		fmt.Printf("[t=%v] host 1 round-tripped through host 0: %q\n", p.Now(), delivered)
	})

	// Heartbeats run forever; bound the run explicitly.
	if err := sim.RunUntil(ntbshmem.Time(30_000_000)); err != nil {
		log.Fatal(err)
	}

	sort.Strings(detections)
	for _, d := range detections {
		fmt.Println(d)
	}
	switch {
	case len(detections) != 2:
		log.Fatalf("expected exactly 2 endpoint detections (both ends of one cable), got %d", len(detections))
	case delivered == "":
		log.Fatal("post-failure traffic never completed")
	default:
		fmt.Println("failure detected on both ends; traffic rerouted around the dead segment")
	}
}
