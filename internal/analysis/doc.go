// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass,
// Diagnostic — sized for this repository's own linters (cmd/graphlint).
// The toolchain is the only dependency: packages are located with
// `go list -export`, and type information for imports is read from the
// build cache's export data via go/importer, so the suite runs offline
// with full go/types fidelity.
//
// The three analyzers encode contracts the test suite can only probe,
// not prove:
//
//   - maporder: nondeterministic map iteration must not reach ordered
//     output (the bit-identical equivalence harness, sorted cross-shard
//     merges, Prometheus exposition).
//   - atomicswap: atomic.Pointer snapshots are immutable once loaded,
//     advance only via Store/Swap/CAS, and publish sites live in the
//     declaring package.
//   - ctxflow: HTTP handlers and everything reachable from them thread
//     the request context; context.Background()/TODO() in a request path
//     is a deliberate act that needs an annotation.
//
// Intentional exceptions are annotated at the offending line (or the
// line above) with:
//
//	//lint:allow <analyzer>[,<analyzer>] <justification>
//
// Suppression is applied centrally by RunAnalyzers, so every analyzer
// honours the same directive. Each analyzer ships analysistest-style
// fixtures under testdata/src; see internal/analysis/analysistest.
package analysis
