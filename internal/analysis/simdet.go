package analysis

import (
	"go/ast"
	"go/types"
)

// Simdet enforces the simulator's determinism contract inside the
// simulation packages: results/*.csv must be byte-identical at any
// worker count, so simulation code may not read the wall clock, draw
// from the process-global math/rand source, or let Go's randomized map
// iteration order reach anything ordered — scheduled events, appended
// output, or writes through the runtime.
var Simdet = &Analyzer{
	Name: "simdet",
	Doc: "forbid wall-clock reads, the global math/rand source, " +
		"runtime.NumCPU/GOMAXPROCS core-count reads, and " +
		"order-sensitive iteration over maps in simulation packages",
	Run: runSimdet,
}

// wallClockFuncs are the time-package functions that observe or depend
// on the host's real clock. time.Duration arithmetic and formatting are
// fine; sampling the clock is not.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand functions that build a private
// generator — the only sanctioned way to use the package in simulation
// code. Everything else at package level draws from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// orderedEffects are method/function names whose invocation inside a
// map-range loop makes iteration order observable: they schedule or
// deliver events, wake processes, push work, or write formatted output.
var orderedEffects = map[string]string{
	"schedule": "schedules an event", "scheduleEvent": "schedules an event",
	"scheduleProc": "schedules an event", "Schedule": "schedules an event",
	"After": "schedules an event", "AfterTick": "schedules an event",
	"AfterFunc": "schedules an event", "Go": "spawns a process",
	"GoAfter": "spawns a process", "GoDaemon": "spawns a process",
	"Push": "pushes ordered work", "Pop": "consumes ordered work",
	"Signal": "wakes a process", "Broadcast": "wakes processes",
	"Complete": "wakes processes", "wake": "wakes a process",
	"Wake": "wakes a process", "wakeAfter": "wakes a process",
	"park": "parks a process", "Park": "parks a process",
	"Submit": "submits device work", "SubmitWait": "submits device work",
	"Ring": "rings a doorbell", "Send": "sends through the runtime",
	"SendChunk": "sends through the runtime", "Record": "records ordered output",
	"Emit": "records ordered output", "Encode": "writes ordered output",
	"Fprintf": "writes ordered output", "Fprint": "writes ordered output",
	"Fprintln": "writes ordered output", "Printf": "writes ordered output",
	"Print": "writes ordered output", "Println": "writes ordered output",
	"Write": "writes ordered output", "WriteString": "writes ordered output",
	"WriteByte": "writes ordered output", "WriteRune": "writes ordered output",
}

func runSimdet(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) && !pass.Waived(n.Pos(), DirectiveOrdered) {
					checkMapRangeBody(pass, n)
				}
			}
			return true
		})
	}
}

// checkForbiddenCall flags wall-clock reads and global math/rand draws.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Only package-level functions matter here; methods (e.g. on a
	// private *rand.Rand or a time.Timer already flagged at its
	// construction) are fine.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulation code must use virtual time (sim.Time)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global source; use a per-world seeded *rand.Rand", fn.Name())
		}
	case "runtime":
		// Core-count reads make results depend on the machine running
		// them; worker policy belongs in the bench/cmd
		// layers, behind the one waived site.
		if (fn.Name() == "NumCPU" || fn.Name() == "GOMAXPROCS") && !pass.Waived(call.Pos(), DirectiveCPUPolicy) {
			pass.Reportf(call.Pos(),
				"runtime.%s makes behaviour depend on the host's core count; take parallelism as a parameter (waive the policy site with //ntblint:cpupolicy)", fn.Name())
		}
	}
}

// checkMapRangeBody flags statements inside a map-range loop that make
// the (randomized) iteration order observable.
func checkMapRangeBody(pass *Pass, loop *ast.RangeStmt) {
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map: iteration order is randomized; sort the keys or waive with //ntblint:ordered")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(),
					"channel receive inside range over map: iteration order is randomized; sort the keys or waive with //ntblint:ordered")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass, id) {
				pass.Reportf(n.Pos(),
					"append inside range over map builds output in randomized iteration order; sort the keys or waive with //ntblint:ordered")
				return true
			}
			if name := calleeName(n); name != "" {
				if effect, ok := orderedEffects[name]; ok {
					pass.Reportf(n.Pos(),
						"%s %s inside range over map: event/output order would follow randomized iteration order; sort the keys or waive with //ntblint:ordered",
						name, effect)
				}
			}
		}
		return true
	})
}

// calleeFunc resolves a call's target to its types.Func, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeName returns the syntactic name of the called function or
// method, or "" when there is none (function values, conversions).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isBuiltin(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
