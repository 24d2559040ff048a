package ocr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tero/internal/imaging"
)

// TestPackedMatchesScalar pins the packed engines at engine level: for
// every engine, the production path and the byte-per-pixel reference of
// scalar_test.go produce identical Results — same Text, and same per-character rune,
// Hamming distance and box — across text content, render scale, polarity,
// contrast and noise.
func TestPackedMatchesScalar(t *testing.T) {
	packed := Engines()
	scalar := scalarEngines()
	r := rand.New(rand.NewSource(7))

	type scenario struct {
		name string
		img  *imaging.Gray
	}
	var cases []scenario
	texts := []string{"42", "128 ms", "7", "345", "ping: 99", "0", "ms", "", "999 MS"}
	for _, text := range texts {
		for _, scale := range []int{1, 2} {
			// Light-on-dark and dark-on-light (exercises polarity detection),
			// plus a low-contrast variant.
			cases = append(cases,
				scenario{fmt.Sprintf("%q s%d light", text, scale), render(text, 20, 230, scale)},
				scenario{fmt.Sprintf("%q s%d dark", text, scale), render(text, 230, 20, scale)},
				scenario{fmt.Sprintf("%q s%d lowc", text, scale), render(text, 60, 100, scale)},
			)
		}
	}
	// Noisy variants: uniform noise and salt-and-pepper on both polarities.
	for i := 0; i < 12; i++ {
		base := render("173 ms", uint8(10+20*(i%3)), uint8(160+r.Intn(90)), 1+i%2)
		if i%2 == 1 {
			base.Invert()
		}
		var img *imaging.Gray
		if i%3 == 0 {
			img = base.SaltPepper(0.02, r.Float64)
		} else {
			img = base.AddNoise(30+10*(i%4), r.Float64)
		}
		imaging.Recycle(base)
		cases = append(cases, scenario{fmt.Sprintf("noise%d", i), img})
	}
	// Pure random images (no text at all): both paths must reject alike.
	for i := 0; i < 6; i++ {
		img := imaging.New(40+r.Intn(120), 10+r.Intn(20))
		for j := range img.Pix {
			img.Pix[j] = uint8(r.Intn(256))
		}
		cases = append(cases, scenario{fmt.Sprintf("rand%d", i), img})
	}

	for _, c := range cases {
		for i := range packed {
			pres := packed[i].Recognize(c.img)
			sres := scalar[i].Recognize(c.img)
			if !reflect.DeepEqual(pres, sres) {
				t.Errorf("%s %s: packed != scalar\npacked %+v\nscalar %+v",
					packed[i].Name(), c.name, pres, sres)
			}
		}
	}
}
