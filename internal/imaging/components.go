package imaging

import (
	"cmp"
	"slices"
)

// Component is a 4-connected region of foreground (non-zero) pixels.
type Component struct {
	Box  Rect
	Area int
}

// ConnectedComponents labels 4-connected foreground regions of a binary
// image and returns one Component per region, ordered left-to-right by
// bounding-box X0 (the order characters appear in a line of text).
func (g *Gray) ConnectedComponents() []Component {
	if g.W == 0 || g.H == 0 {
		return nil
	}
	labels := make([]int32, g.W*g.H)
	var comps []Component
	var stack []int32

	for start := range g.Pix {
		if g.Pix[start] == 0 || labels[start] != 0 {
			continue
		}
		id := int32(len(comps) + 1)
		comp := Component{Box: Rect{X0: g.W, Y0: g.H, X1: 0, Y1: 0}}
		stack = append(stack[:0], int32(start))
		labels[start] = id
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x := int(idx) % g.W
			y := int(idx) / g.W
			comp.Area++
			if x < comp.Box.X0 {
				comp.Box.X0 = x
			}
			if y < comp.Box.Y0 {
				comp.Box.Y0 = y
			}
			if x+1 > comp.Box.X1 {
				comp.Box.X1 = x + 1
			}
			if y+1 > comp.Box.Y1 {
				comp.Box.Y1 = y + 1
			}
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= g.W || ny >= g.H {
					continue
				}
				nidx := int32(ny*g.W + nx)
				if g.Pix[nidx] != 0 && labels[nidx] == 0 {
					labels[nidx] = id
					stack = append(stack, nidx)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Stable, so components that start in the same column and row keep
	// their discovery order.
	slices.SortStableFunc(comps, func(a, b Component) int {
		return cmp.Or(cmp.Compare(a.Box.X0, b.Box.X0), cmp.Compare(a.Box.Y0, b.Box.Y0))
	})
	return comps
}

// SegmentColumns splits the image into vertical strips separated by at
// least minGap consecutive empty columns, returning the X ranges of the
// non-empty runs. This is how the simplest OCR engine finds characters.
func (g *Gray) SegmentColumns(minGap int) []Rect {
	// The projection profile: the foreground (non-zero) pixels of each column.
	proj := make([]int, g.W)
	for y := 0; y < g.H; y++ {
		for x, p := range g.Pix[y*g.W : (y+1)*g.W] {
			if p != 0 {
				proj[x]++
			}
		}
	}
	var out []Rect
	inRun := false
	runStart := 0
	gap := 0
	for x := 0; x <= len(proj); x++ {
		filled := x < len(proj) && proj[x] > 0
		switch {
		case filled && !inRun:
			inRun = true
			runStart = x
			gap = 0
		case !filled && inRun:
			gap++
			if gap >= minGap || x == len(proj) {
				out = append(out, Rect{X0: runStart, Y0: 0, X1: x - gap + 1, Y1: g.H})
				inRun = false
			}
		case filled && inRun:
			gap = 0
		}
	}
	if inRun {
		out = append(out, Rect{X0: runStart, Y0: 0, X1: g.W, Y1: g.H})
	}
	return out
}

// TightBox returns the bounding box of all foreground pixels, or an empty
// Rect if there are none.
func (g *Gray) TightBox() Rect {
	box := Rect{X0: g.W, Y0: g.H}
	found := false
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if g.Pix[y*g.W+x] != 0 {
				found = true
				if x < box.X0 {
					box.X0 = x
				}
				if y < box.Y0 {
					box.Y0 = y
				}
				if x+1 > box.X1 {
					box.X1 = x + 1
				}
				if y+1 > box.Y1 {
					box.Y1 = y + 1
				}
			}
		}
	}
	if !found {
		return Rect{}
	}
	return box
}
