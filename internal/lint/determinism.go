package lint

import (
	"go/ast"
	"go/types"
)

// Determinism flags the direct nondeterminism sources that make
// simulator, trainer and scheduler output depend on anything but the
// seed: wall-clock and timer reads (time.Now/Since/Until/Sleep/Tick/
// After/NewTimer/NewTicker) and the global math/rand functions, in the
// deterministic core and command packages. Map-iteration-order hazards
// are owned by the taintdet dataflow analyzer, which tracks them to an
// actual ordered sink instead of flagging every range over a map. Use
// //lint:allow determinism for justified exceptions.
var Determinism = &Analyzer{
	Name:  "determinism",
	Scope: []string{"internal/...", "cmd/..."},
	Run:   runDeterminism,
}

// wallClockFuncs are the time package functions that read the wall
// clock or real timers. Constructors like time.Date or time.Unix are
// pure.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions backed by the shared global source. rand.New and
// rand.NewSource construct seedable local generators and are the
// sanctioned replacement.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func runDeterminism(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkNondeterministicCall(p, call)
			}
			return true
		})
	}
}

func checkNondeterministicCall(p *Pass, call *ast.CallExpr) {
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			p.Reportf(call.Pos(), "call of time.%s reads the wall clock or a real timer; inject a clock so runs are reproducible", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions use the global source; methods
		// on *rand.Rand have a receiver and a caller-owned seed.
		if fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[fn.Name()] {
			p.Reportf(call.Pos(), "call of rand.%s uses the global math/rand source; use a seeded *rand.Rand (or sim.RNG) instead", fn.Name())
		}
	}
}
