package analysis

import "regexp"

// SimScope matches the packages whose code must be deterministic in the
// byte-identical-results sense: the kernel, the device and protocol
// layers, the runtime, and the benchmark engine that renders results/.
// Other packages (examples, commands, parsing helpers) may iterate maps
// and read clocks freely. It is declared here — not in cmd/ntblint — so
// the command-line runner and the self-hosting suite test apply the
// identical scoping.
var SimScope = regexp.MustCompile(`(^|/)internal/(sim|pcie|ntb|driver|fabric|core|mem|bench|trace)$`)

// FabricScope matches the package that owns the fabric.Link contract;
// fabriccontract only makes claims where backends live.
var FabricScope = regexp.MustCompile(`(^|/)internal/fabric$`)

// ApplyRepoScopes installs the production Match functions on the suite:
// simdet runs on the simulation packages, fabriccontract
// on the fabric package, and the rest everywhere. Fixture tests run
// analyzers with Match unset instead, so they see their single-package
// loads unscoped.
func ApplyRepoScopes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		switch a.Name {
		case Simdet.Name:
			a.Match = SimScope.MatchString
		case Fabriccontract.Name:
			a.Match = FabricScope.MatchString
		}
	}
}
