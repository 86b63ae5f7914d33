package graphreorder

// One testing.B benchmark per paper table/figure: each bench runs the
// same harness driver that cmd/reprobench exposes, at Tiny scale so the
// whole suite completes in minutes. For recorded, paper-regime numbers
// use cmd/reprobench at -scale medium/large (see EXPERIMENTS.md).

import (
	"io"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/harness"
)

// benchRunner builds a quiet, minimal-options runner per benchmark
// iteration set. The runner keeps nothing between runs, so each of the
// b.N iterations generates, reorders and measures everything anew.
func benchRunner() *harness.Runner {
	return harness.NewRunner(harness.Options{
		Scale:       gen.Tiny,
		Trials:      1,
		MaxIters:    3,
		RootsPerApp: 1,
		Out:         io.Discard,
	})
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := benchRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunByID(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Skew(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2HotPerBlock(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3Footprint(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4DegreeRanges(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5DBGFramework(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkFig3RandomReordering(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig5Implementations(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkTable11ReorderTime(b *testing.B)   { benchExperiment(b, "table11") }
func BenchmarkFig6Speedups(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7NoSkew(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8MPKI(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9Coherence(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10NetSpeedup(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11SSSPTraversals(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable12Amortization(b *testing.B)  { benchExperiment(b, "table12") }
func BenchmarkAblationGroups(b *testing.B)       { benchExperiment(b, "ablation-groups") }
func BenchmarkAblationGorderDBG(b *testing.B)    { benchExperiment(b, "ablation-gorderdbg") }

// BenchmarkDBGEndToEnd measures the library's core loop — generate,
// reorder with DBG, rebuild — at Small scale, reporting allocations.
func BenchmarkDBGEndToEnd(b *testing.B) {
	g, err := GenerateDataset("sd", "small")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reorder(g, DBG(), OutDegree); err != nil {
			b.Fatal(err)
		}
	}
}
