// Package detcheck flags nondeterminism hazards in the packages whose
// output is pinned by golden snapshots and cross-backend ordering tests
// (internal/experiments, internal/dist, internal/karma):
//
//  1. Map iteration. Go randomizes map order per run; in these packages
//     an iteration's order routinely reaches rendered tables, float
//     accumulation (non-associative), or plan construction, and a
//     reorder silently invalidates a golden row instead of failing
//     loudly. The rule is strict — every `range` over a map is flagged
//     — because auditing "can the order reach output?" by hand is
//     exactly the mistake-prone process this analyzer replaces. Iterate
//     a sorted key slice, use a slice keyed by index, or waive a
//     genuinely order-free loop with `//karma:det-ok reason`.
//
//  2. time.Now in model code. Simulated time is unit.Seconds; wall
//     clock reads make results environment-dependent.
//
//  3. math/rand package-level functions (rand.Intn, rand.Shuffle, ...).
//     These draw from the unseeded (Go ≥1.20: randomly-seeded) global
//     source; model code must thread an explicit seeded *rand.Rand the
//     way internal/aco and the property harnesses do.
package detcheck

import (
	"go/ast"
	"go/types"

	"karma/internal/analysis"
)

// Analyzer is the detcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:      "detcheck",
	Directive: "det-ok",
	Doc: "flags map iteration, time.Now and global math/rand use in the " +
		"packages whose deterministic output golden tests depend on",
	Packages: []string{
		"karma/internal/experiments", "karma/internal/dist", "karma/internal/karma",
		// The sweep engine orders results.
		"karma/internal/sweep",
		// The simulator core retired its `running` map for an indexed
		// heap; keep map iteration from creeping back into the hot loop.
		"karma/internal/sim",
		// karma-serve promises byte-identical responses for identical
		// requests; an unordered iteration in the response or /stats
		// rendering path would break that silently.
		"karma/internal/serve",
		// Exported traces are cached and compared byte-for-byte across
		// worker counts; an unordered iteration in the renderer would
		// shuffle events between identical requests.
		"karma/internal/trace",
	},
	Run: run,
}

// globalRandFns are the math/rand package-level functions drawing from
// the global source. Constructors (New, NewSource, NewZipf) are fine.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"ExpFloat64": true, "NormFloat64": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile[f] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *analysis.Pass, r *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[r.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(r.For,
		"map iteration order is nondeterministic and this package feeds golden output, accumulation or plan construction; iterate sorted keys or an index-keyed slice")
}

func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	if _, isMethodOrField := pass.TypesInfo.Selections[sel]; isMethodOrField {
		// r.Intn on an explicit *rand.Rand is the sanctioned pattern; only
		// package-level qualified identifiers touch the global source.
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(sel.Pos(),
				"time.Now in model code makes results wall-clock dependent; simulated time is unit.Seconds")
		}
	case "math/rand", "math/rand/v2":
		if globalRandFns[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the global source; thread an explicit seeded *rand.Rand instead", obj.Name())
		}
	}
}
