// Package tero's root benchmarks regenerate every table and figure of the
// paper's evaluation, one testing.B benchmark per artifact (DESIGN.md maps
// them). Scales are reduced so a full -bench=. pass stays laptop-sized; run
// cmd/teroexp with -scale for full-size reproductions.
package tero

import (
	"testing"

	"tero/internal/experiments"
)

// runExp executes one experiment per benchmark iteration at a reduced scale
// and reports rows produced (so regressions in coverage are visible).
func runExp(b *testing.B, id string, scale float64) {
	b.Helper()
	b.ReportAllocs()
	opts := experiments.Options{Seed: 1, Scale: scale}
	rows := 0
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows = 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkFig2Clusters(b *testing.B)        { runExp(b, "fig2", 0.4) }
func BenchmarkFig4Testbed(b *testing.B)         { runExp(b, "fig4", 0.5) }
func BenchmarkTab3Location(b *testing.B)        { runExp(b, "tab3", 0.4) }
func BenchmarkTab4OCR(b *testing.B)             { runExp(b, "tab4", 0.4) }
func BenchmarkFig5Errors(b *testing.B)          { runExp(b, "fig5", 0.3) }
func BenchmarkFig7Coverage(b *testing.B)        { runExp(b, "fig7", 0.4) }
func BenchmarkFig8Unevenness(b *testing.B)      { runExp(b, "fig8", 0.3) }
func BenchmarkFig9Regional(b *testing.B)        { runExp(b, "fig9", 0.5) }
func BenchmarkFig10Doughnut(b *testing.B)       { runExp(b, "fig10", 0.5) }
func BenchmarkFig11Doughnut(b *testing.B)       { runExp(b, "fig11", 0.5) }
func BenchmarkFig12Peers(b *testing.B)          { runExp(b, "fig12", 0.5) }
func BenchmarkTab5Probit(b *testing.B)          { runExp(b, "tab5", 0.25) }
func BenchmarkFig13InterArrival(b *testing.B)   { runExp(b, "fig13", 0.4) }
func BenchmarkFig14ClusterFactors(b *testing.B) { runExp(b, "fig14", 0.4) }
func BenchmarkFig15Sensitivity(b *testing.B)    { runExp(b, "fig15", 0.3) }
func BenchmarkFig16MaxSpikes(b *testing.B)      { runExp(b, "fig16", 0.3) }
func BenchmarkFig17Glitches(b *testing.B)       { runExp(b, "fig17", 0.3) }
func BenchmarkFig18Spikes(b *testing.B)         { runExp(b, "fig18", 0.3) }
func BenchmarkVolumePipeline(b *testing.B)      { runExp(b, "volume", 0.25) }
func BenchmarkSharedAnomalies(b *testing.B)     { runExp(b, "shared", 1.0) }
func BenchmarkPELTBaseline(b *testing.B)        { runExp(b, "pelt", 0.5) }
