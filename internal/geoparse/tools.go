// Package geoparse implements the five geocoding/geoparsing tools Tero
// combines to locate streamers (§3.1, Table 3), standing in for CLIFF,
// Xponents, Mordecai, Nominatim and GeoNames. Each tool is a gazetteer
// matcher with a deliberately different recall/precision trade-off, so that
// the conservative filter (App. D.1) and the agreement/subsumption
// combination rules (App. D.2/D.3) have real disagreements to arbitrate:
//
//   - CLIFF matches capitalized n-grams only and resolves ambiguity by
//     population (precise-ish, low recall on informal text).
//   - Xponents matches case-insensitively and accepts prefix matches
//     ("Denmarkian" → Denmark), the highest recall and error rate.
//   - Mordecai returns several candidates without ranking confidence.
//   - Nominatim parses a structured "city, country" location field using
//     the trailing parts as context.
//   - GeoNames resolves each name independently by population, ignoring
//     context (falls for "Paris, Texas").
package geoparse

import (
	"strings"

	"tero/internal/geo"
)

// Tool extracts candidate locations from text.
type Tool interface {
	Name() string
	Extract(text string) []geo.Location
}

// token is one word of input with its original casing and whether it opens
// a sentence (capitalization there is not proper-noun evidence).
type token struct {
	raw           string
	norm          string
	sentenceStart bool
}

// tokenize splits text into word tokens, stripping punctuation and marking
// sentence-initial tokens.
func tokenize(text string) []token {
	var out []token
	start := true
	var cur []rune
	flush := func() {
		if len(cur) == 0 {
			return
		}
		raw := strings.Trim(string(cur), ".-")
		cur = cur[:0]
		if raw == "" {
			return
		}
		out = append(out, token{raw: raw, norm: geo.Normalize(raw), sentenceStart: start})
		start = false
	}
	for _, r := range text {
		switch r {
		case '.', '!', '?':
			flush()
			start = true
		case ' ', '\t', '\n', ',', ';', '(', ')', '"', '\'', ':', '/', '#', '@':
			flush()
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return out
}

// ngrams yields the n-gram strings (raw and normalized) of up to maxN
// consecutive tokens, longest first at each position.
func ngrams(toks []token, maxN int, fn func(start, n int, raw, norm string) bool) {
	for i := 0; i < len(toks); i++ {
		for n := maxN; n >= 1; n-- {
			if i+n > len(toks) {
				continue
			}
			rawParts := make([]string, n)
			normParts := make([]string, n)
			for k := 0; k < n; k++ {
				rawParts[k] = toks[i+k].raw
				normParts[k] = toks[i+k].norm
			}
			if fn(i, n, strings.Join(rawParts, " "), strings.Join(normParts, " ")) {
				break // consumed: skip shorter grams at this position
			}
		}
	}
}

// isCapitalized reports whether every word of the raw n-gram starts with an
// upper-case letter (the proper-noun heuristic CLIFF and Mordecai use).
func isCapitalized(raw string) bool {
	for _, w := range strings.Fields(raw) {
		r := rune(w[0])
		if r < 'A' || r > 'Z' {
			return false
		}
	}
	return true
}

// stopwords that alias place names but are usually not locations in
// informal text ("turkey dinner", "georgia peaches" stay risky for the
// case-insensitive tools — that is the point).
var commonWords = map[string]bool{
	"us": true, "in": true, "la": true, "of": true, "no": true,
	"on": true, "to": true, "or": true, "me": true, "de": true,
}

// weakShortMatch reports whether a 1-gram match should be discarded: one-
// or two-letter place codes ("ON", "CA") only count when written in
// upper case; lowercase "on" or "ca" are ordinary words.
func weakShortMatch(raw, norm string) bool {
	if len(norm) > 2 {
		return false
	}
	return strings.ToUpper(raw) != raw
}

// CLIFF is the capitalized-n-gram geocoder.
type CLIFF struct {
	Gaz *geo.Gazetteer
}

// Name implements Tool.
func (c *CLIFF) Name() string { return "CLIFF" }

// Extract implements Tool.
func (c *CLIFF) Extract(text string) []geo.Location {
	toks := tokenize(text)
	var matches []*geo.Place
	ngrams(toks, 3, func(_, n int, raw, norm string) bool {
		if !isCapitalized(raw) || commonWords[norm] {
			return false
		}
		if n == 1 && weakShortMatch(raw, norm) {
			return false
		}
		cands := c.Gaz.Lookup(raw)
		if len(cands) == 0 {
			return false
		}
		matches = append(matches, cands[0])
		return true
	})
	if len(matches) == 0 {
		return nil
	}
	// Spatial disambiguation: a city whose region or country is also
	// mentioned in the text wins ("Miami, Florida" → Miami, not Florida).
	names := make(map[string]bool, len(matches))
	for _, m := range matches {
		names[m.Name] = true
	}
	for _, m := range matches {
		if m.Kind == geo.KindCity && (names[m.Region] || names[m.Country]) {
			return []geo.Location{m.Location()}
		}
	}
	// Otherwise the most populous interpretation wins (CLIFF's heuristic).
	best := matches[0]
	for _, m := range matches[1:] {
		if m.Pop > best.Pop {
			best = m
		}
	}
	return []geo.Location{best.Location()}
}

// Xponents is the aggressive case-insensitive matcher with prefix fallback.
type Xponents struct {
	Gaz *geo.Gazetteer
}

// Name implements Tool.
func (x *Xponents) Name() string { return "Xponents" }

// Extract implements Tool.
func (x *Xponents) Extract(text string) []geo.Location {
	toks := tokenize(text)
	var best *geo.Place
	consider := func(p *geo.Place) {
		if best == nil || p.Pop > best.Pop {
			best = p
		}
	}
	ngrams(toks, 3, func(_, n int, raw, norm string) bool {
		if commonWords[norm] {
			return false
		}
		if n == 1 && weakShortMatch(raw, norm) {
			return false
		}
		if cands := x.Gaz.Lookup(norm); len(cands) > 0 {
			consider(cands[0])
			return true
		}
		// Prefix fallback for single long tokens: "Denmarkian" → Denmark.
		if n == 1 && len(norm) >= 6 {
			if p := x.Gaz.PrefixOf(norm); p != nil {
				consider(p)
				return true
			}
		}
		return false
	})
	if best == nil {
		return nil
	}
	return []geo.Location{best.Location()}
}

// Mordecai returns multiple unranked candidates.
type Mordecai struct {
	Gaz *geo.Gazetteer
	// MaxCandidates bounds the output (the real tool "may output multiple
	// results without indicating which one is likelier").
	MaxCandidates int
}

// Name implements Tool.
func (m *Mordecai) Name() string { return "Mordecai" }

// Extract implements Tool.
func (m *Mordecai) Extract(text string) []geo.Location {
	maxC := m.MaxCandidates
	if maxC <= 0 {
		maxC = 3
	}
	toks := tokenize(text)
	var out []geo.Location
	seen := map[string]bool{}
	ngrams(toks, 3, func(start, n int, raw, norm string) bool {
		if !isCapitalized(raw) || commonWords[norm] {
			return false
		}
		// Proper-noun heuristic: a capitalized sentence-opening word is not
		// evidence of a place name (unlike CLIFF, which falls for it).
		if toks[start].sentenceStart {
			return false
		}
		if n == 1 && weakShortMatch(raw, norm) {
			return false
		}
		cands := m.Gaz.Lookup(raw)
		if len(cands) == 0 {
			return false
		}
		for _, p := range cands {
			if len(out) >= maxC {
				break
			}
			l := p.Location()
			if !seen[l.Key()] {
				seen[l.Key()] = true
				out = append(out, l)
			}
		}
		return true
	})
	return out
}

// Nominatim parses a structured location field ("Barcelona, Spain") using
// trailing parts as containment context.
type Nominatim struct {
	Gaz *geo.Gazetteer
}

// Name implements Tool.
func (n *Nominatim) Name() string { return "Nominatim" }

// Extract implements Tool.
func (n *Nominatim) Extract(text string) []geo.Location {
	parts := strings.Split(text, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	// Drop empty parts.
	clean := parts[:0]
	for _, p := range parts {
		if p != "" {
			clean = append(clean, p)
		}
	}
	parts = clean
	if len(parts) == 0 {
		return nil
	}
	if len(parts) >= 2 {
		head := parts[0]
		// Use the last part that resolves as context.
		for i := len(parts) - 1; i >= 1; i-- {
			ctx := parts[i]
			// Country context.
			if ctry := n.Gaz.Country(ctx); ctry != nil {
				if city := n.Gaz.City(head, ctry.Name); city != nil {
					return []geo.Location{city.Location()}
				}
				if reg := n.Gaz.Region(head, ctry.Name); reg != nil {
					return []geo.Location{reg.Location()}
				}
				return []geo.Location{ctry.Location()}
			}
			// Region context: find a city of that name within the region.
			for _, rp := range n.Gaz.Lookup(ctx) {
				if rp.Kind != geo.KindRegion {
					continue
				}
				for _, cp := range n.Gaz.Lookup(head) {
					if cp.Kind == geo.KindCity && cp.Region == rp.Name && cp.Country == rp.Country {
						return []geo.Location{cp.Location()}
					}
				}
				return []geo.Location{rp.Location()}
			}
		}
	}
	// Single part (or unresolvable context): resolve the whole field, then
	// the first part alone.
	whole := strings.Join(parts, " ")
	if p := n.Gaz.LookupOne(whole); p != nil {
		return []geo.Location{p.Location()}
	}
	if p := n.Gaz.LookupOne(parts[0]); p != nil {
		return []geo.Location{p.Location()}
	}
	return nil
}

// GeoNames resolves each name independently, most populous first, ignoring
// the rest of the field.
type GeoNames struct {
	Gaz *geo.Gazetteer
}

// Name implements Tool.
func (g *GeoNames) Name() string { return "GeoNames" }

// Extract implements Tool.
func (g *GeoNames) Extract(text string) []geo.Location {
	toks := tokenize(text)
	var best *geo.Place
	ngrams(toks, 3, func(_, n int, raw, norm string) bool {
		if best != nil {
			return false // first resolvable mention wins; context ignored
		}
		if commonWords[norm] {
			return false
		}
		if n == 1 && weakShortMatch(raw, norm) {
			return false
		}
		cands := g.Gaz.Lookup(norm)
		if len(cands) == 0 {
			return false
		}
		// Most populous interpretation of that mention ("Paris, Texas" →
		// Paris, France — the classic GeoNames failure).
		best = cands[0]
		return true
	})
	if best == nil {
		return nil
	}
	return []geo.Location{best.Location()}
}
