package anomaly

import (
	"math/rand"
	"testing"
)

// series returns a flat series with Gaussian jitter and injected outliers
// at given positions.
func series(n int, base float64, outliers map[int]float64) []float64 {
	out := make([]float64, n)
	r := rand.New(rand.NewSource(4))
	for i := range out {
		out[i] = base + r.NormFloat64()*1.5
	}
	for i, v := range outliers {
		out[i] = v
	}
	return out
}

func countTrue(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

func detectors() []Detector {
	return []Detector{
		&LOF{K: 5, Threshold: 1.5},
		&IForest{Trees: 60, SampleSize: 128, KIQR: 1.5, Seed: 1},
		&MCD{Contamination: 0.1},
	}
}

func TestDetectorsFindObviousOutliers(t *testing.T) {
	vals := series(200, 45, map[int]float64{50: 200, 120: 190, 121: 210})
	for _, d := range detectors() {
		mask := d.Detect(vals)
		if len(mask) != len(vals) {
			t.Fatalf("%s: mask length %d", d.Name(), len(mask))
		}
		for _, i := range []int{50, 120, 121} {
			if !mask[i] {
				t.Errorf("%s missed outlier at %d", d.Name(), i)
			}
		}
	}
}

func TestDetectorsQuietOnCleanData(t *testing.T) {
	vals := series(300, 45, nil)
	for _, d := range detectors() {
		n := countTrue(d.Detect(vals))
		// LOF and iForest are allowed a somewhat higher false-positive
		// rate: App. J observes the baselines flag points "even if just
		// slightly different from neighbours" — the Gaussian tail looks
		// locally sparse to them.
		limit := 0.05
		if d.Name() == "iForests" || d.Name() == "LOF" {
			limit = 0.12
		}
		if float64(n) > limit*float64(len(vals)) {
			t.Errorf("%s flagged %d/%d points of clean data", d.Name(), n, len(vals))
		}
	}
}

func TestDetectorsHandleTinyInput(t *testing.T) {
	for _, d := range detectors() {
		for _, vals := range [][]float64{nil, {45}, {45, 46}, {45, 46, 47}} {
			mask := d.Detect(vals)
			if len(mask) != len(vals) {
				t.Fatalf("%s: tiny input mask mismatch", d.Name())
			}
		}
	}
}

func TestDetectorsLowOutlier(t *testing.T) {
	// A glitch-like low outlier must be detected too.
	vals := series(200, 45, map[int]float64{77: 5})
	for _, d := range detectors() {
		if !d.Detect(vals)[77] {
			t.Errorf("%s missed low outlier", d.Name())
		}
	}
}

func TestSplitByMean(t *testing.T) {
	vals := []float64{45, 45, 45, 200, 5, 45}
	mask := []bool{false, false, false, true, true, false}
	spikes, glitches := SplitByMean(vals, mask)
	if !spikes[3] || spikes[4] {
		t.Fatalf("spikes = %v", spikes)
	}
	if !glitches[4] || glitches[3] {
		t.Fatalf("glitches = %v", glitches)
	}
}

func TestLOFDuplicateHeavySeries(t *testing.T) {
	// Many identical values (infinite density) must not crash or flag.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 45
	}
	vals[99] = 300
	l := &LOF{K: 5, Threshold: 1.5}
	mask := l.Detect(vals)
	if countTrue(mask[:99]) != 0 {
		t.Fatal("duplicates flagged")
	}
	if !mask[99] {
		t.Fatal("missed outlier among duplicates")
	}
}

func TestMCDRespectsContamination(t *testing.T) {
	vals := series(100, 45, map[int]float64{1: 300, 2: 310, 3: 290})
	m := &MCD{Contamination: 0.02} // allows at most 2 detections
	if n := countTrue(m.Detect(vals)); n > 2 {
		t.Fatalf("MCD flagged %d, contamination allows 2", n)
	}
}

func TestIForestDeterministic(t *testing.T) {
	vals := series(150, 45, map[int]float64{10: 250})
	f1 := &IForest{Trees: 50, SampleSize: 64, KIQR: 1.0, Seed: 7}
	f2 := &IForest{Trees: 50, SampleSize: 64, KIQR: 1.0, Seed: 7}
	m1 := f1.Detect(vals)
	m2 := f2.Detect(vals)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("same seed must give same detections")
		}
	}
}

func TestIForestScoresRange(t *testing.T) {
	vals := series(100, 45, map[int]float64{5: 400})
	f := &IForest{Trees: 50, SampleSize: 64, Seed: 3}
	scores := f.Scores(vals)
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v out of [0,1]", i, s)
		}
	}
	// Outlier must have the max score.
	maxI := 0
	for i, s := range scores {
		if s > scores[maxI] {
			maxI = i
		}
	}
	if maxI != 5 {
		t.Fatalf("max score at %d, want 5", maxI)
	}
}

func TestPELTFindsLevelShift(t *testing.T) {
	vals := make([]float64, 100)
	r := rand.New(rand.NewSource(8))
	for i := range vals {
		if i < 50 {
			vals[i] = 45 + r.Float64()
		} else {
			vals[i] = 90 + r.Float64()
		}
	}
	cps := PELT(vals, DefaultPenalty(vals))
	if len(cps) == 0 {
		t.Fatal("no changepoint found for an obvious level shift")
	}
	found := false
	for _, cp := range cps {
		if cp >= 47 && cp <= 53 {
			found = true
		}
	}
	if !found {
		t.Fatalf("changepoints %v do not include the shift at 50", cps)
	}
}

func TestPELTQuietOnFlatSeries(t *testing.T) {
	vals := make([]float64, 80)
	r := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = 45 + r.Float64()*0.5
	}
	cps := PELT(vals, DefaultPenalty(vals))
	if len(cps) > 2 {
		t.Fatalf("flat series produced %d changepoints", len(cps))
	}
}

func TestPELTEmpty(t *testing.T) {
	if PELT(nil, 1) != nil {
		t.Fatal("empty series")
	}
}
