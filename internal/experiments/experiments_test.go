package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must have a runner.
	want := []string{
		"fig2", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"tab3", "tab4", "tab5", "volume", "shared", "pelt", "dense",
		"ablation-ocr", "ablation-location", "ablation-correction",
	}
	have := map[string]bool{}
	for _, e := range List() {
		have[e[0]] = true
		if e[1] == "" {
			t.Errorf("experiment %s has no description", e[0])
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{Seed: 1, Scale: 1}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Notes:  []string{"n1"},
	}
	tb.AddRow("x", "y")
	out := tb.String()
	for _, want := range []string{"== T ==", "long-header", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(100); got != 50 {
		t.Fatalf("scaled = %d", got)
	}
	if got := o.scaled(1); got != 1 {
		t.Fatalf("scaled floor = %d", got)
	}
	o.Scale = 0
	if got := o.scaled(100); got != 100 {
		t.Fatalf("zero scale = %d", got)
	}
}

// Smoke tests at tiny scale for the cheaper experiments: rows exist and the
// run is deterministic given the seed.
func TestExperimentsSmoke(t *testing.T) {
	for _, id := range []string{"fig7", "fig13", "pelt", "dense"} {
		o := Options{Seed: 3, Scale: 0.2}
		t1, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rows := 0
		for _, tb := range t1 {
			rows += len(tb.Rows)
		}
		if rows == 0 {
			t.Fatalf("%s: no rows", id)
		}
		t2, err := Run(id, o)
		if err != nil {
			t.Fatal(err)
		}
		if render(t1) != render(t2) {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func render(ts []*Table) string {
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.String())
	}
	return sb.String()
}

func TestFig2ClusterShape(t *testing.T) {
	tabs, err := Run("fig2", Options{Seed: 2, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) < 6 {
		t.Fatalf("fig2 shape: %d tables", len(tabs))
	}
	// Every listed location produces at least one cluster row with a
	// weight column.
	for _, row := range tabs[0].Rows {
		if len(row) != 3 {
			t.Fatalf("row = %v", row)
		}
	}
}

func TestTab3Ordering(t *testing.T) {
	// The key Table 3 property: the conservative filter slashes the raw
	// tools' error rates.
	tabs, err := Run("tab3", Options{Seed: 1, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]string{}
	for _, row := range tabs[0].Rows {
		rates[row[0]] = row[2]
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("bad rate %q", s)
		}
		return v
	}
	if parse(rates["CLIFF"]) < 3*parse(rates["CLIFF++"]) {
		t.Errorf("filter should slash CLIFF error: raw %s vs ++ %s",
			rates["CLIFF"], rates["CLIFF++"])
	}
	if parse(rates["Xponents"]) < 3*parse(rates["Xponents++"]) {
		t.Errorf("filter should slash Xponents error: raw %s vs ++ %s",
			rates["Xponents"], rates["Xponents++"])
	}
}
