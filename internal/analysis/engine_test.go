package analysis

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadFixtureEngine builds an engine over one fixture package.
func loadFixtureEngine(t *testing.T, name string) (*Engine, *Package) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return NewEngine([]*Package{pkg}), pkg
}

// TestEngineImplementers checks interface lookup over the
// fabriccontract fixture: the full implementers satisfy Link, the
// partial ones do not.
func TestEngineImplementers(t *testing.T) {
	e, _ := loadFixtureEngine(t, "fabriccontract")

	links := e.Interfaces("Link")
	if len(links) != 1 {
		t.Fatalf("Interfaces(Link) found %d interfaces, want 1", len(links))
	}
	iface := links[0].Underlying().(*types.Interface)

	got := map[string]bool{}
	for _, named := range e.Implementers(iface) {
		got[named.Obj().Name()] = true
	}
	for _, want := range []string{"goodLink", "stubLink"} {
		if !got[want] {
			t.Errorf("Implementers(Link) is missing %s (got %v)", want, got)
		}
	}
	for _, reject := range []string{"halfLink", "traceAdapter", "resetOnly"} {
		if got[reject] {
			t.Errorf("Implementers(Link) wrongly includes %s", reject)
		}
	}
}

// TestEngineMemo checks the memo builds once and is shared.
func TestEngineMemo(t *testing.T) {
	e, _ := loadFixtureEngine(t, "fabriccontract")
	builds := 0
	build := func() any { builds++; return builds }
	if v := e.Memo("test", build); v.(int) != 1 {
		t.Fatalf("first Memo = %v, want 1", v)
	}
	if v := e.Memo("test", build); v.(int) != 1 {
		t.Fatalf("second Memo = %v, want cached 1", v)
	}
	if builds != 1 {
		t.Fatalf("memo built %d times, want 1", builds)
	}
}

// TestRunParallelDeterministic checks the parallel runner returns the
// identical diagnostic stream at every worker count — the property the
// lint gate's byte-identical output rests on.
func TestRunParallelDeterministic(t *testing.T) {
	var pkgs []*Package
	for _, name := range []string{"allocfree", "fabriccontract", "waiverdrift", "simdet"} {
		pkg, err := LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	analyzers := []*Analyzer{Simdet, Allocfree, Fabriccontract, Waiverdrift}

	base, timings := RunParallel(pkgs, analyzers, 1)
	if len(base) == 0 {
		t.Fatal("expected findings across the fixture packages")
	}
	if len(timings) != len(analyzers)+1 || timings[0].Name != "engine" {
		t.Fatalf("timings = %v, want engine + one entry per analyzer", timings)
	}
	for _, workers := range []int{2, 4, 13} {
		got, _ := RunParallel(pkgs, analyzers, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d diagnostics, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d: diagnostic %d = %v, want %v", workers, i, got[i], base[i])
			}
		}
	}
}
