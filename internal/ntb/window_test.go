package ntb

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestWindowUntouchedReadsZero(t *testing.T) {
	s, a, b, _ := pair(t)
	got := make([]byte, 64)
	s.Go("r", func(p *sim.Proc) {
		a.CPURead(p, RegionData, 1<<19, got)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("CPURead of an untouched window = %x", got)
	}
	if in := b.Inbound(RegionBypass, 4096); !bytes.Equal(in, make([]byte, 4096)) {
		t.Fatal("Inbound of an untouched window is not zero")
	}
}

func TestWindowBackedOnlyAsFarAsAddressed(t *testing.T) {
	s, a, b, par := pair(t)
	s.Go("w", func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 100, []byte("abc"))
		a.CPUWrite(p, RegionData, 10000, []byte("def"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(b.inbound[RegionData]); n >= par.WindowSize || n < 10003 {
		t.Fatalf("window backs %d bytes after writes ending at 10003 (window %d)", n, par.WindowSize)
	}
	if b.inbound[RegionBypass] != nil {
		t.Fatal("an unaddressed window was backed")
	}
	win := b.Inbound(RegionData, 10003)
	if string(win[100:103]) != "abc" || string(win[10000:]) != "def" {
		t.Fatal("growing the window lost earlier contents")
	}
	if full := b.Inbound(RegionData, par.WindowSize); len(full) != par.WindowSize {
		t.Fatalf("Inbound(WindowSize) returned %d bytes", len(full))
	}
}

func TestWindowAccessPastSizePanics(t *testing.T) {
	_, _, b, par := pair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Inbound past WindowSize did not panic")
		}
	}()
	b.Inbound(RegionData, par.WindowSize+1)
}

func TestWindowSnapshotRestorePartiallyBacked(t *testing.T) {
	s, a, b, par := pair(t)
	payload := []byte("partially backed")
	s.Go("w", func(p *sim.Proc) {
		a.CPUWrite(p, RegionBypass, 5000, payload)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()

	_, _, fresh, _ := pair(t)
	fresh.Restore(snap)
	end := 5000 + len(payload)
	if n := len(fresh.inbound[RegionBypass]); n < end || n >= par.WindowSize {
		t.Fatalf("restored window backs %d bytes for a %d-byte extent", n, end)
	}
	want := make([]byte, par.WindowSize)
	copy(want[5000:], payload)
	for _, p := range []*Port{b, fresh} {
		if !bytes.Equal(p.Inbound(RegionBypass, par.WindowSize), want) {
			t.Fatalf("%s: window differs from the snapshot image", p.name)
		}
	}
	if fresh.winDirty != b.winDirty {
		t.Fatalf("restored dirty extents %v, want %v", fresh.winDirty, b.winDirty)
	}
}

func TestWindowResetRerunDoesNotReallocate(t *testing.T) {
	s, a, b, _ := pair(t)
	payload := bytes.Repeat([]byte{0x5a}, 8192)
	s.Go("w", func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 4096, payload)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := b.Snapshot()
	backing := &b.inbound[RegionData][0]
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		b.Restore(snap)
	})
	if allocs != 0 {
		t.Fatalf("reset and rerun allocated %.1f times per cycle", allocs)
	}
	// Rerun the write itself on the reset port, which must read as
	// zero before it.
	b.Reset()
	if !bytes.Equal(b.Inbound(RegionData, 4096+8192), make([]byte, 4096+8192)) {
		t.Fatal("Reset left window bytes behind")
	}
	s.Go("w2", func(p *sim.Proc) {
		a.CPUWrite(p, RegionData, 4096, payload)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if &b.inbound[RegionData][0] != backing {
		t.Fatal("reset and rerun replaced the window backing")
	}
	if !bytes.Equal(b.Inbound(RegionData, 4096+8192)[4096:], payload) {
		t.Fatal("rerun window contents differ")
	}
}
