// Package analysis is the repository's static-analysis toolkit: a small,
// dependency-free core modelled on golang.org/x/tools/go/analysis plus
// the four ntblint analyzers that machine-check the simulator's
// determinism, reset, and hot-path invariants (see LINT.md).
//
// The x/tools module is deliberately not imported — the reproduction
// builds with the standard library alone — so this package re-creates
// the two pieces of go/analysis it needs: an Analyzer/Pass/Diagnostic
// vocabulary and a loader that parses and type-checks packages with the
// stdlib source importer. The API mirrors go/analysis closely enough
// that porting an analyzer between the two is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Analyzer is one named, self-contained check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and waivers.
	Name string

	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string

	// Match restricts which packages the runner hands to the analyzer;
	// nil means every loaded package. Fixture tests bypass Match and
	// run the analyzer directly.
	Match func(pkgPath string) bool

	// Run inspects one package and reports findings through the pass.
	Run func(pass *Pass)
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Engine is the cross-package fact layer built over the whole load
	// (declaration index, type and implementer lookup, memo space).
	// It is shared by every pass in one Run and safe for concurrent use.
	Engine *Engine

	directives directiveIndex
	diags      []Diagnostic
}

// Diagnostic is one finding, carrying a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Timing is one analyzer's wall-clock cost accumulated across every
// package it ran on in a single Run. The pseudo-entry named "engine"
// records the one-time cross-package fact-layer build.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// Run applies each analyzer to each package it matches and returns the
// combined findings sorted by position, so output is stable regardless
// of package or analyzer order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunParallel(pkgs, analyzers, 1)
	return diags
}

// RunParallel is Run with a package-level worker pool: packages are
// claimed by an atomic counter and analyzed concurrently (loading and
// the engine build stay serial — the stdlib source importer is not
// concurrency-safe, but the finished engine and type info are
// read-only). Diagnostics are slotted per package and merged in the
// same position order as Run, so output is byte-identical at any
// worker count. The returned timings accumulate per-analyzer
// wall-clock across packages, plus the engine build.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, []Timing) {
	start := time.Now()
	engine := NewEngine(pkgs)
	engineElapsed := time.Since(start)

	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}

	elapsed := make([]int64, len(analyzers)) // atomic nanoseconds per analyzer
	perPkg := make([][]Diagnostic, len(pkgs))
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(pkgs) {
					return
				}
				pkg := pkgs[i]
				for ai, a := range analyzers {
					if a.Match != nil && !a.Match(pkg.Path) {
						continue
					}
					pass := &Pass{
						Analyzer:   a,
						Fset:       pkg.Fset,
						Files:      pkg.Files,
						Pkg:        pkg.Types,
						TypesInfo:  pkg.Info,
						Engine:     engine,
						directives: engine.directivesFor(pkg.Path),
					}
					t0 := time.Now()
					a.Run(pass)
					atomic.AddInt64(&elapsed[ai], int64(time.Since(t0)))
					perPkg[i] = append(perPkg[i], pass.diags...)
				}
			}
		}()
	}
	wg.Wait()

	var out []Diagnostic
	for _, diags := range perPkg {
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})

	timings := []Timing{{Name: "engine", Elapsed: engineElapsed}}
	for ai, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name, Elapsed: time.Duration(elapsed[ai])})
	}
	return out, timings
}
