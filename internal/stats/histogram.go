package stats

// Histogram is a fixed-width binned histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples outside [Lo, Hi).
	Under, Over int
}

// NewHistogram creates a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if x < h.Lo {
		h.Under++
		return
	}
	if x >= h.Hi {
		h.Over++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// AddAll records all samples of xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}
