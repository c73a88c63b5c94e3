package sim

import "testing"

// phaseLoad spawns a deterministic mix of processes; used as both a
// warm-up prefix and a divergent future in the snapshot tests.
func phaseLoad(s *Simulator, procs, hops int, step Duration) {
	for i := 0; i < procs; i++ {
		i := i
		s.Go("load", func(p *Proc) {
			for h := 0; h < hops; h++ {
				p.Sleep(step + Duration(i)*3)
			}
		})
	}
}

func TestSnapshotRestoreContinuesBitIdentically(t *testing.T) {
	orig := New()
	phaseLoad(orig, 4, 16, 100)
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	snap := orig.Snapshot()
	if snap.Now() != orig.Now() {
		t.Fatalf("snapshot time %v, sim at %v", snap.Now(), orig.Now())
	}

	// The forked kernel restored from the snapshot and the original
	// continuing in place must execute the same future identically.
	prefixEvents := orig.EventsExecuted()
	fork := New()
	fork.Restore(snap)
	phaseLoad(orig, 3, 9, 77)
	phaseLoad(fork, 3, 9, 77)
	if err := orig.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fork.Run(); err != nil {
		t.Fatal(err)
	}
	if orig.Now() != fork.Now() {
		t.Fatalf("continued sim at %v, forked sim at %v", orig.Now(), fork.Now())
	}
	if got := orig.EventsExecuted() - prefixEvents; got != fork.EventsExecuted() {
		t.Fatalf("continued sim executed %d events past the snapshot, forked %d", got, fork.EventsExecuted())
	}
}

func TestSnapshotAssertsQuiescence(t *testing.T) {
	s := New()
	phaseLoad(s, 1, 1, 10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot after Shutdown did not panic")
		}
	}()
	s.Snapshot()
}

func TestRestoreThenResetReturnsToZero(t *testing.T) {
	s := New()
	phaseLoad(s, 2, 4, 50)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	fresh := New()
	fresh.Restore(snap)
	fresh.Reset()
	if fresh.Now() != 0 {
		t.Fatalf("reset-after-restore clock at %v, want 0", fresh.Now())
	}
	phaseLoad(fresh, 2, 4, 50)
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != s.Now() {
		t.Fatalf("replay after reset ends at %v, original at %v", fresh.Now(), s.Now())
	}
}
