// Package imageproc implements Tero's image-processing module (§3.2,
// App. E): it takes a thumbnail and a game, and extracts the latency the
// game displays in it, in four steps:
//
//  1. Pre-processing: crop around the game's latency UI, up-scale and
//     blur; each engine binarizes by its own rule (see preprocess).
//  2. OCR: run the three engines on the pre-processed crop, through one
//     ocr.Page.
//  3. Cleanup: per-engine game-specific post-processing (strip the game's
//     label text, convert confusable letters to digits), then 2-of-3
//     voting — agreement of at least two engines yields the primary value;
//     a disagreeing third engine's value is kept as the alternative.
//  4. Reprocessing: if the vote is ambiguous, repeat OCR + cleanup on the
//     raw (non-pre-processed) crop; if still ambiguous, the thumbnail is
//     discarded.
package imageproc

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"tero/internal/games"
	"tero/internal/imaging"
	"tero/internal/obs"
	"tero/internal/ocr"
)

// distBuckets bins per-character Hamming distances (0 = perfect template
// match); the histogram doubles as a per-engine confidence profile.
var distBuckets = obs.LinearBuckets(0, 2, 12)

// engineMetrics holds one engine's metric handles, so that a vote costs
// neither three rendered label strings nor three registry lookups per
// engine. Handles stay valid across obs.Reset. Registration is lazy, so a
// metric is listed on /metrics only once it has counted something: the read
// counter at the engine's first read, the acceptance pair at its first
// accepted value.
type engineMetrics struct {
	name     string
	reads    *obs.Counter
	accepted atomic.Pointer[acceptMetrics]
}

type acceptMetrics struct {
	accepted *obs.Counter
	charDist *obs.Histogram
}

var (
	engineMetricsMu sync.RWMutex
	engineMetricsBy map[string]*engineMetrics // made at the first engine's first read
)

func metricsFor(engine string) *engineMetrics {
	engineMetricsMu.RLock()
	m := engineMetricsBy[engine]
	engineMetricsMu.RUnlock()
	if m != nil {
		return m
	}
	engineMetricsMu.Lock()
	defer engineMetricsMu.Unlock()
	if m = engineMetricsBy[engine]; m == nil {
		m = &engineMetrics{name: engine, reads: obs.C(obs.Lbl("ocr_engine_reads_total", "engine", engine))}
		if engineMetricsBy == nil {
			engineMetricsBy = make(map[string]*engineMetrics)
		}
		engineMetricsBy[engine] = m
	}
	return m
}

func (m *engineMetrics) onAccept() *acceptMetrics {
	am := m.accepted.Load()
	if am == nil {
		// Racing first acceptances resolve the same two handles.
		am = &acceptMetrics{
			accepted: obs.C(obs.Lbl("ocr_engine_accepted_total", "engine", m.name)),
			charDist: obs.H(obs.Lbl("ocr_engine_char_dist", "engine", m.name), distBuckets),
		}
		m.accepted.Store(am)
	}
	return am
}

// Extraction is the output of the image-processing module for one thumbnail.
type Extraction struct {
	// Value is the primary latency in ms; valid only when OK.
	Value int
	// OK reports whether a latency was extracted.
	OK bool
	// Alt is the alternative value (§3.2 step 4): when exactly two engines
	// agreed, the third engine's differing output. Valid when HasAlt.
	Alt    int
	HasAlt bool
	// Zero reports that the display showed the waiting-lobby placeholder 0
	// (discarded per App. E but distinguished from a plain miss).
	Zero bool
}

// Extractor is a configured image-processing module. It is safe for
// concurrent use once configured: Extract keeps its per-call state on the
// stack and in pooled ocr.Pages (one per vote, read by that vote's engines),
// and across calls the engines share nothing but their lock-free glyph memos
// (the pipeline's worker pool runs many extractions against one Extractor).
// Within a vote, the built-in engines share the page's histogram and every
// bitmap their thresholds agree on: on a seeded corpus, one bitmap serves
// all three on 83% of pages. Each New starts with engines of its own, their
// memos empty.
// Reconfiguring the fields while extractions are in flight is not supported.
type Extractor struct {
	Engines []ocr.Engine
	// Pad is the padding around the game UI crop.
	Pad int
	// Upscale is the nearest-neighbour pre-processing up-scale factor.
	Upscale int
	// BlurSigma is the pre-processing Gaussian blur.
	BlurSigma float64
}

// New returns an Extractor with the paper's default pipeline.
func New() *Extractor {
	return &Extractor{
		Engines:   ocr.Engines(),
		Pad:       4,
		Upscale:   2,
		BlurSigma: 0.5,
	}
}

// Extract runs the full four-step pipeline on a thumbnail: the crop around
// the game's latency UI, then ExtractCrop on it. The crop is a scratch image
// recycled back to the imaging pool before returning.
func (e *Extractor) Extract(thumb *imaging.Gray, game *games.Game) Extraction {
	// Defensive: a nil or degenerate image (a corrupt download that slipped
	// past quarantine) extracts nothing rather than panicking a worker.
	if thumb == nil || game == nil || thumb.W <= 0 || thumb.H <= 0 {
		return Extraction{}
	}
	crop := thumb.Crop(game.UI.CropRect(e.Pad))
	ex := e.ExtractCrop(crop, game)
	imaging.Recycle(crop)
	return ex
}

// ExtractCrop runs steps 1 to 4 on crop, which must be the game's
// UI.CropRect(e.Pad) of a thumbnail (clamped to it): the positional filter
// reads character positions against that rectangle. The pipeline enters
// here with a crop decoded straight from the stored bytes
// (imaging.DecodePGMRect). The crop stays the caller's; the pre-processed
// intermediate is recycled before returning.
func (e *Extractor) ExtractCrop(crop *imaging.Gray, game *games.Game) Extraction {
	if crop == nil || game == nil || crop.W <= 0 || crop.H <= 0 {
		return Extraction{}
	}
	// Step 1-3 on the pre-processed crop.
	scale := e.Upscale
	if scale < 1 {
		scale = 1
	}
	pre := e.preprocess(crop)
	ex, ok := e.voteOn(pre, game, scale)
	if pre != crop {
		imaging.Recycle(pre)
	}
	if !ok {
		// Step 4: reprocess without pre-processing.
		ex, ok = e.voteOn(crop, game, 1)
	}
	if ok {
		return ex
	}
	return Extraction{}
}

// preprocess applies the App. E pipeline: up-scale and blur, in one kernel
// when both are configured (the up-scaled image is never materialised).
// The result is the crop itself when neither is. The binarization rule is
// deliberately left to each OCR engine: one shared rule would make the
// engines see identical bits on every image and err identically,
// destroying the error diversity the 2-of-3 vote needs. Where the engines'
// own rules select the same pixels — on 83% of a seeded corpus's pages —
// the ocr.Page packs that bitmap once, which changes no bit any engine
// sees. App. E's dilate/erode closing is not applied: it only makes sense
// after a shared binarization.
func (e *Extractor) preprocess(crop *imaging.Gray) *imaging.Gray {
	if e.BlurSigma <= 0 && e.Upscale <= 1 {
		return crop
	}
	return crop.ScaleNearestBlur(e.Upscale, e.BlurSigma)
}

// digitWindow returns the x-range of the crop (scaled by `scale`) where the
// latency digits can possibly appear, given the game's UI: for a
// right-anchored display the text's right edge is fixed, so everything left
// of the 3-digit-wide window is label or junk; symmetrically for
// left-anchored displays. This is the §3.2 game-knowledge heuristic that
// rejects characters "where we expected a single latency digit" not to be.
func (e *Extractor) digitWindow(game *games.Game, cropW, scale int) (lo, hi int) {
	adv := 6 * game.UI.Scale * scale // font advance, scaled
	pad := e.Pad * scale
	prefixW := len([]rune(game.UI.Prefix)) * adv
	suffixW := len([]rune(game.UI.Suffix)) * adv
	switch game.UI.Anchor {
	case games.TopRight, games.BottomRight:
		// Text right edge fixed at cropW - pad.
		hi = cropW - pad - suffixW
		lo = hi - 3*adv
	default:
		// Text left edge fixed at pad.
		lo = pad + prefixW
		hi = lo + 3*adv
	}
	return lo, hi
}

// positionalFilter drops recognized characters that lie entirely outside
// the digit window extended by the adjacent label widths — junk overlays
// and, crucially, label glyphs misread as digits ('g' of "Ping" as '9').
func (e *Extractor) positionalFilter(res ocr.Result, game *games.Game, cropW, scale int) ocr.Result {
	if len(res.Chars) == 0 {
		return res
	}
	lo, hi := e.digitWindow(game, cropW, scale)
	adv := 6 * game.UI.Scale * scale
	prefixW := len([]rune(game.UI.Prefix))*adv + adv
	suffixW := len([]rune(game.UI.Suffix))*adv + adv
	keepLo, keepHi := lo-prefixW, hi+suffixW
	keep := func(c ocr.Char) bool {
		center := (c.Box.X0 + c.Box.X1) / 2
		// Any character centered outside the plausible text area is junk
		// (custom overlays, subscriber counters).
		if center < keepLo || center > keepHi {
			return false
		}
		// A digit-looking character centered outside the digit window
		// belongs to the label, not the measurement ('g' of "Ping" → '9').
		isDigitish := c.R >= '0' && c.R <= '9'
		return !isDigitish || (center >= lo && center <= hi)
	}
	kept := 0
	for _, c := range res.Chars {
		if keep(c) {
			kept++
		}
	}
	if kept == len(res.Chars) {
		return res // nothing to drop: the engine's Result as it is
	}
	// The engine's Result is not edited in place: it is the engine's to
	// share (a test double returns the same one every call).
	out := ocr.Result{Chars: make([]ocr.Char, 0, kept)}
	text := make([]byte, 0, 64)
	for _, c := range res.Chars {
		if keep(c) {
			out.Chars = append(out.Chars, c)
			text = utf8.AppendRune(text, c.R)
		}
	}
	out.Text = string(text)
	return out
}

// voteOn runs all engines on an image, read through one ocr.Page, and
// applies cleanup + 2-of-3 voting.
// The boolean result reports whether the vote was conclusive (including a
// conclusive zero); an inconclusive vote triggers reprocessing.
// scale is the up-scaling factor the image was rendered at (for the
// positional filter's coordinate system).
func (e *Extractor) voteOn(img *imaging.Gray, game *games.Game, scale int) (Extraction, bool) {
	values := make([]int, 0, len(e.Engines))
	pg := ocr.NewPage(img)
	defer pg.Release()
	for _, eng := range e.Engines {
		res := e.positionalFilter(pg.Read(eng), game, img.W, scale)
		m := metricsFor(eng.Name())
		m.reads.Inc()
		if v, ok := CleanupResult(res, game); ok {
			values = append(values, v)
			am := m.onAccept()
			am.accepted.Inc()
			// Confidence: the match distance of each character the engine
			// committed to (lower = closer to the font template).
			for _, c := range res.Chars {
				am.charDist.Observe(float64(c.Dist))
			}
		}
	}
	// Find a majority value.
	for i := 0; i < len(values); i++ {
		agree := 1
		for j := 0; j < len(values); j++ {
			if j != i && values[j] == values[i] {
				agree++
			}
		}
		if agree < 2 {
			continue
		}
		v := values[i]
		if v == 0 {
			// Lobby placeholder: conclusively zero, discarded (App. E).
			return Extraction{Zero: true}, true
		}
		if v > 999 {
			continue // latency must have at most 3 digits (App. E)
		}
		ex := Extraction{Value: v, OK: true}
		// Exactly two agree out of three valid: keep the third as alternative.
		if agree == 2 && len(values) == 3 {
			for _, o := range values {
				if o != v && o != 0 && o <= 999 {
					ex.Alt = o
					ex.HasAlt = true
					break
				}
			}
		}
		return ex, true
	}
	return Extraction{}, false
}

// confusable maps letters commonly mistaken for digits at low resolution
// back to the digit they most likely were (§3.2: "mistake 8 for B or S,
// 0 for O, 4 for A").
var confusable = map[rune]rune{
	'O': '0', 'o': '0', 'D': '0', 'Q': '0',
	'l': '1', 'I': '1', 'i': '1',
	'Z': '2', 'z': '2',
	'A': '4',
	'S': '5', 's': '5',
	'G': '6', 'b': '6',
	'T': '7',
	'B': '8',
	'g': '9', 'q': '9',
}

// CleanupResult applies the game-specific post-processing of §3.2 step 3 to
// one engine's raw output: strip the characters belonging to the game's
// label text (e.g. "ms" after the digits, "Ping:" before them), convert
// confusable letters in the digit region to digits, and parse the number.
// The boolean is false when no plausible latency remains.
func CleanupResult(res ocr.Result, game *games.Game) (int, bool) {
	runes := []rune(res.Text)
	if len(runes) == 0 {
		return 0, false
	}
	// Noise specks at the edges read as punctuation ('-', '.') would eat
	// the label-alignment budget: trim them first.
	isPunct := func(r rune) bool {
		return r == ' ' || r == ':' || r == '.' || r == '-' || r == '/'
	}
	for len(runes) > 0 && isPunct(runes[0]) {
		runes = runes[1:]
	}
	for len(runes) > 0 && isPunct(runes[len(runes)-1]) {
		runes = runes[:len(runes)-1]
	}
	// Strip label characters from the front (prefix) and back (suffix).
	runes = stripLabel(runes, game.UI.Prefix, false)
	runes = stripLabel(runes, game.UI.Suffix, true)

	// Locate the digit core: the span from the first digit to the last
	// digit. Junk outside the core (noise specks read as stray letters or
	// punctuation) is discarded — the paper's heuristic of deciding which
	// characters "look most like a latency digit" versus other on-screen
	// elements. A letter *inside* the core, however, means the read is
	// unreliable, and the whole result is rejected (conservative).
	first, last := -1, -1
	for i, r := range runes {
		if r >= '0' && r <= '9' {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, false
	}
	// Confusable letters adjacent to the digit span are likely misread
	// digits of the same number: include them in the core.
	for first > 0 {
		if _, ok := confusable[runes[first-1]]; !ok {
			break
		}
		first--
	}
	for last < len(runes)-1 {
		if _, ok := confusable[runes[last+1]]; !ok {
			break
		}
		last++
	}
	var sb strings.Builder
	for _, r := range runes[first : last+1] {
		if r == ' ' || r == ':' || r == '.' || r == '-' || r == '/' {
			continue // split/merge artifacts between digits
		}
		if r >= '0' && r <= '9' {
			sb.WriteRune(r)
			continue
		}
		if d, ok := confusable[r]; ok {
			sb.WriteRune(d)
			continue
		}
		return 0, false
	}
	s := sb.String()
	if s == "" || len(s) > 4 {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return v, true
}

// isLetter reports whether r is an ASCII letter.
func isLetter(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

// labelCharMatches reports whether OCR output char c plausibly is label
// character lc: case-insensitive equality, any punctuation/space for
// punctuation/space, or a digit that is the known low-resolution confusion
// of the label letter (e.g. 's' read as '5', 'i' read as '1').
func labelCharMatches(c, lc rune) (match, viaDigit bool) {
	lower := func(r rune) rune {
		if r >= 'A' && r <= 'Z' {
			return r + 32
		}
		return r
	}
	if lower(c) == lower(lc) {
		return true, false
	}
	punct := func(r rune) bool { return r == ' ' || r == ':' || r == '.' || r == '-' }
	if punct(c) && punct(lc) {
		return true, false
	}
	// Digit standing in for a confusably-shaped label letter.
	if c >= '0' && c <= '9' {
		if d, ok := confusable[lc]; ok && d == c {
			return true, true
		}
		if d, ok := confusable[lower(lc)]; ok && d == c {
			return true, true
		}
	}
	return false, false
}

// stripLabel removes from the start (or end, if fromEnd) of runes the
// characters that plausibly belong to the given label text. It aligns the
// OCR output against the label with a two-pointer scan that tolerates
// dropped label characters and letters read as digits; a digit is only
// consumed as a label character if at least one genuine letter of the label
// also matches (so a bare measurement like "45" never loses its trailing
// "5" to a label "ms").
func stripLabel(runes []rune, label string, fromEnd bool) []rune {
	lab := []rune(label)
	if len(lab) == 0 || len(runes) == 0 {
		return runes
	}
	stripped := 0    // committed strip count
	provisional := 0 // digits matched via confusion, pending a letter match
	li := 0          // label characters consumed
	bailed := false  // the measurement digits stopped the scan
	for stripped+provisional < len(runes) && li < len(lab) {
		var c, lc rune
		if fromEnd {
			c = runes[len(runes)-1-stripped-provisional]
			lc = lab[len(lab)-1-li]
		} else {
			c = runes[stripped+provisional]
			lc = lab[li]
		}
		match, viaDigit := labelCharMatches(c, lc)
		switch {
		case match && viaDigit:
			provisional++
			li++
		case match:
			// A genuine label character: commit it and any provisional digits.
			stripped += provisional + 1
			provisional = 0
			li++
		case c >= '0' && c <= '9':
			// A real digit that matches nothing: the measurement starts here.
			bailed = true
		case isLetter(c) && isLetter(lc):
			// A mangled label letter ('P' read as 'F'): substitute — consume
			// both, committing any provisional digits before it.
			stripped += provisional + 1
			provisional = 0
			li++
		default:
			// A dropped label character: skip one label char.
			li++
		}
		if bailed {
			break
		}
	}
	// Provisional digits at the label's inner edge (e.g. the 'g' of
	// "Ping " read as '9', with only the space left unmatched) are still
	// label characters: commit them when every remaining label character is
	// punctuation, which OCR does not emit.
	if provisional > 0 {
		punctOnly := true
		for k := li; k < len(lab); k++ {
			var lc rune
			if fromEnd {
				lc = lab[len(lab)-1-k]
			} else {
				lc = lab[k]
			}
			if !(lc == ' ' || lc == ':' || lc == '.' || lc == '-') {
				punctOnly = false
				break
			}
		}
		if punctOnly {
			stripped += provisional
		}
	}
	if fromEnd {
		return runes[:len(runes)-stripped]
	}
	return runes[stripped:]
}
