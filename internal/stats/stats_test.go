package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "Mean")
	m, s := MeanStd(xs)
	approx(t, m, 5, 1e-12, "MeanStd mean")
	approx(t, s, math.Sqrt(32.0/7.0), 1e-12, "MeanStd std")
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-input stats should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Percentile(xs, 0), 1, 0, "P0")
	approx(t, Percentile(xs, 50), 3, 0, "P50")
	approx(t, Percentile(xs, 100), 5, 0, "P100")
	approx(t, Percentile(xs, 25), 2, 1e-12, "P25")
	// Interpolation: P10 of [1..5] = 1 + 0.4*(2-1)
	approx(t, Percentile(xs, 10), 1.4, 1e-12, "P10")
	// Unsorted input must give the same result.
	approx(t, Percentile([]float64{5, 3, 1, 4, 2}, 50), 3, 0, "P50 unsorted")
}

func TestPercentileSingle(t *testing.T) {
	approx(t, Percentile([]float64{7}, 95), 7, 0, "single element")
}

func TestBoxplot(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := NewBoxplot(xs)
	approx(t, b.P5, 5, 1e-9, "P5")
	approx(t, b.P25, 25, 1e-9, "P25")
	approx(t, b.P50, 50, 1e-9, "P50")
	approx(t, b.P75, 75, 1e-9, "P75")
	approx(t, b.P95, 95, 1e-9, "P95")
	if b.N != 101 {
		t.Fatalf("N = %d", b.N)
	}
}

func TestBoxplotMonotonic(t *testing.T) {
	// Property: the five percentiles are always non-decreasing.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := NewBoxplot(xs)
		return b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		x := NormalQuantile(p)
		approx(t, NormalCDF(x), p, 1e-10, "roundtrip")
	}
	approx(t, NormalQuantile(0.5), 0, 1e-12, "median quantile")
	approx(t, NormalCDF(0), 0.5, 1e-15, "CDF(0)")
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile limits")
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoid integration of pdf over [-6, x] should match CDF.
	integ := 0.0
	const steps = 8000
	step := 8.0 / steps
	prev := NormalPDF(-6)
	for i := 1; i <= steps; i++ {
		cur := NormalPDF(-6 + float64(i)*step)
		integ += (prev + cur) / 2 * step
		prev = cur
	}
	approx(t, integ, NormalCDF(2), 1e-5, "pdf integral")
}

func TestWasserstein1Basics(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 1, 1}
	approx(t, Wasserstein1(a, b), 1, 1e-12, "point masses")
	approx(t, Wasserstein1(a, a), 0, 1e-12, "identical")
	// Symmetry.
	x := []float64{0, 0.5, 1}
	y := []float64{0.2, 0.4, 0.9}
	approx(t, Wasserstein1(x, y), Wasserstein1(y, x), 1e-12, "symmetry")
}

func TestWasserstein1Shift(t *testing.T) {
	// Property: W1(x, x+c) == |c|.
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		c := r.Float64()*10 - 5
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = xs[i] + c
		}
		approx(t, Wasserstein1(xs, ys), math.Abs(c), 1e-9, "shift")
	}
}

func TestUnevennessScore(t *testing.T) {
	// All points at one instant → max score 1.
	burst := []float64{10, 10, 10, 10}
	s := UnevennessScore(burst, 300)
	if s < 0.9 {
		t.Fatalf("bursty score = %v, want near 1", s)
	}
	// Perfectly uniform points → near 0.
	uniform := []float64{37.5, 112.5, 187.5, 262.5}
	s = UnevennessScore(uniform, 300)
	approx(t, s, 0, 1e-9, "uniform score")
	// Bounds property.
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = r.Float64() * 300
		}
		sc := UnevennessScore(ts, 300)
		if sc < 0 || sc > 1 {
			t.Fatalf("score %v out of [0,1]", sc)
		}
	}
}

func TestBinomial(t *testing.T) {
	approx(t, BinomialPMF(10, 5, 0.5), 0.24609375, 1e-10, "pmf(10,5,.5)")
	approx(t, BinomialTail(10, 0, 0.3), 1, 0, "tail k=0")
	approx(t, BinomialTail(10, 11, 0.3), 0, 0, "tail k>n")
	// Pr[X>=1] = 1 - (1-p)^n
	approx(t, BinomialTail(5, 1, 0.2), 1-math.Pow(0.8, 5), 1e-12, "tail k=1")
	// PMF sums to 1.
	s := 0.0
	for k := 0; k <= 20; k++ {
		s += BinomialPMF(20, k, 0.37)
	}
	approx(t, s, 1, 1e-10, "pmf sums to 1")
	// Degenerate p.
	approx(t, BinomialPMF(5, 0, 0), 1, 0, "p=0 k=0")
	approx(t, BinomialPMF(5, 5, 1), 1, 0, "p=1 k=n")
}

func TestBinomialTailMonotone(t *testing.T) {
	// Property: tail is non-increasing in k and non-decreasing in p.
	for k := 0; k <= 20; k++ {
		if BinomialTail(20, k, 0.4) < BinomialTail(20, k+1, 0.4)-1e-12 {
			t.Fatalf("tail not monotone in k at %d", k)
		}
	}
	prev := 0.0
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cur := BinomialTail(20, 5, p)
		if cur < prev-1e-12 {
			t.Fatalf("tail not monotone in p at %v", p)
		}
		prev = cur
	}
}

func TestSignificanceCondition(t *testing.T) {
	if !SignificanceCondition(1000, 0.1) {
		t.Fatal("1000 samples at p=0.1 should be significant (90 > 10)")
	}
	if SignificanceCondition(50, 0.01) {
		t.Fatal("50 samples at p=0.01 should not be significant (0.495 < 10)")
	}
}

func TestFitProbitRecoversCoefficients(t *testing.T) {
	// Generate data from a known probit model and check recovery.
	r := rand.New(rand.NewSource(42))
	trueB0, trueB1 := -1.0, 0.8
	n := 20000
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x := r.Float64() * 4
		X[i] = []float64{x}
		p := NormalCDF(trueB0 + trueB1*x)
		if r.Float64() < p {
			y[i] = 1
		}
	}
	m, err := FitProbit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, m.Coef[0], trueB0, 0.08, "intercept")
	approx(t, m.Coef[1], trueB1, 0.08, "slope")
	if m.StdErr == nil || m.StdErr[1] <= 0 {
		t.Fatal("missing standard errors")
	}
	// Slope should be highly significant.
	if p := m.PValue(1); p > 1e-6 {
		t.Fatalf("slope p-value = %v, want tiny", p)
	}
	// Marginal effect equals mean of phi(xb)*b1, must be positive and below b1.
	ame := m.AverageMarginalEffect(X, 0)
	if ame <= 0 || ame >= trueB1 {
		t.Fatalf("AME = %v out of (0, %v)", ame, trueB1)
	}
}

func TestFitProbitNoVariation(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	if _, err := FitProbit(X, []int{1, 1, 1}); err == nil {
		t.Fatal("expected error for constant outcome")
	}
	if _, err := FitProbit(nil, nil); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestCholeskySolve(t *testing.T) {
	A := [][]float64{{4, 2}, {2, 3}}
	b := []float64{2, 5}
	x, err := solveSymmetric(A, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A x = b.
	approx(t, 4*x[0]+2*x[1], 2, 1e-10, "row0")
	approx(t, 2*x[0]+3*x[1], 5, 1e-10, "row1")
	// Non-PD matrix errors.
	if _, err := cholesky([][]float64{{-1}}); err == nil {
		t.Fatal("expected non-PD error")
	}
}

func TestInvertSymmetric(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 2}}
	inv, err := invertSymmetric(A)
	if err != nil {
		t.Fatal(err)
	}
	// A * inv = I
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s := 0.0
			for k := 0; k < 2; k++ {
				s += A[i][k] * inv[k][j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			approx(t, s, want, 1e-10, "identity")
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{-1, 0, 0.5, 5, 9.99, 10, 15})
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(5, 5, 0) // invalid range and bins are fixed up
	h.Add(5)
	if len(h.Counts) != 1 || h.Counts[0] != 1 || h.Under != 0 || h.Over != 0 {
		t.Fatalf("degenerate histogram should still count: %+v", h)
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := CDFAt(xs, []float64{0, 1, 2.5, 4, 9})
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		approx(t, got[i], want[i], 1e-12, "CDFAt")
	}
}

func TestWassersteinAgainstBruteForce(t *testing.T) {
	// For equal-size samples, W1 equals the mean absolute difference of
	// sorted samples. Cross-check the CDF-integration implementation.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 50
			ys[i] = r.Float64() * 50
		}
		got := Wasserstein1(xs, ys)
		a := append([]float64(nil), xs...)
		b := append([]float64(nil), ys...)
		sortFloats(a)
		sortFloats(b)
		want := 0.0
		for i := range a {
			want += math.Abs(a[i] - b[i])
		}
		want /= float64(n)
		approx(t, got, want, 1e-9, "brute force W1")
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
