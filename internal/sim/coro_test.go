package sim

import (
	"runtime"
	"sync"
	"testing"
)

func TestCoroutineRecycledSpawnAllocs(t *testing.T) {
	s := New()
	ran := 0
	cycle := func() {
		s.Go("worker", func(p *Proc) {
			p.Sleep(Microsecond)
			ran++
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Reset()
	}
	// Warm up: bind (and on a cold idle list, create) the coroutine the
	// measured spawns recycle, and size the procs map and queues.
	cycle()
	// The Proc and the body closure (it captures ran) are the only
	// allocations a recycled spawn may make.
	if got := testing.AllocsPerRun(100, cycle); got > 2 {
		t.Fatalf("recycled spawn+run+Reset allocates %v times, want ≤ 2", got)
	}
	if ran != 102 {
		t.Fatalf("worker ran %d times, want 102", ran)
	}
}

func TestCoroutineReuseAcrossSimulators(t *testing.T) {
	// Two goroutines churn spawns through the shared idle list at once;
	// each must reproduce the serial run exactly.
	const worlds, procs = 20, 50
	churn := func() (sum Time, served int) {
		for w := 0; w < worlds; w++ {
			s := New()
			q := NewQueue[int]("sink")
			s.GoDaemon("sink", func(p *Proc) {
				for {
					served += q.Pop(p)
				}
			})
			for i := 0; i < procs; i++ {
				s.GoAfter("spawn", Duration(i%7)*Microsecond, func(p *Proc) {
					p.Yield()
					q.Push(i)
					p.Sleep(Duration(w%3+1) * Microsecond)
				})
			}
			if err := s.Run(); err != nil {
				t.Error(err)
				return
			}
			sum += s.Now()
			s.Shutdown()
		}
		return sum, served
	}
	wantSum, wantServed := churn()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sum, served := churn(); sum != wantSum || served != wantServed {
				t.Errorf("concurrent churn: end-time sum %v, served %d; serial %v, %d",
					sum, served, wantSum, wantServed)
			}
		}()
	}
	wg.Wait()
}

func TestCoroutineGoexitUnwindsRun(t *testing.T) {
	// A body that calls runtime.Goexit ends its coroutine, and iter.Pull
	// re-raises the Goexit in the goroutine that called Run.
	s := New()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Go("quitter", func(p *Proc) {
			p.Sleep(Microsecond)
			runtime.Goexit()
		})
		s.Run() //nolint:errcheck — never returns
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process body called Goexit")
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("the Goexit'ed process is still live")
	}
	s.Go("after", func(p *Proc) { p.Sleep(Microsecond) })
	if err := s.Run(); err != nil {
		t.Fatalf("simulator unusable after the Goexit: %v", err)
	}
}

// idleCoroCount reports the idle list's length.
func idleCoroCount() int {
	idleCoros.Lock()
	defer idleCoros.Unlock()
	return len(idleCoros.list)
}
