// Package tero's one root benchmark, BenchmarkVolumePipeline, runs the
// volume experiment — the full pipeline over HTTP — at a reduced scale;
// scripts/check.sh runs it once as a smoke. `teroexp <id>` regenerates each
// table and figure of the paper's evaluation, and the repo's benchmark is
// the bench module that BENCHMARK.json declares.
package tero

import (
	"testing"

	"tero/internal/experiments"
)

// BenchmarkVolumePipeline runs the volume experiment once per iteration and
// reports the rows it produced, so a loss of coverage is visible.
func BenchmarkVolumePipeline(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run("volume", experiments.Options{Seed: 1, Scale: 0.25})
		if err != nil {
			b.Fatalf("volume: %v", err)
		}
		rows = 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			b.Fatal("volume produced no rows")
		}
	}
	b.ReportMetric(float64(rows), "rows")
}
