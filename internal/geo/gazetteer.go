package geo

import (
	"sort"
	"strings"
	"sync"
)

// Gazetteer is an indexed collection of places supporting name lookup with
// aliases, diacritic folding and ambiguity (several places may share a
// name — e.g. Paris, France and Paris, Texas).
type Gazetteer struct {
	places  []*Place
	byName  map[string][]*Place
	byKind  map[Kind][]*Place
	country map[string]*Place // canonical lowercase country name -> place
	region  map[string]*Place // "region|country" -> place
	cityKey map[string]*Place // "city|country" -> place
}

var (
	worldOnce sync.Once
	world     *Gazetteer
)

// World returns the embedded world gazetteer, built once.
func World() *Gazetteer {
	worldOnce.Do(func() {
		world = NewGazetteer(rawPlaces)
	})
	return world
}

// NewGazetteer builds an indexed gazetteer from a set of places. Continent
// information is inherited from the country entry by regions and cities.
func NewGazetteer(entries []Place) *Gazetteer {
	g := &Gazetteer{
		byName:  make(map[string][]*Place),
		byKind:  make(map[Kind][]*Place),
		country: make(map[string]*Place),
		region:  make(map[string]*Place),
		cityKey: make(map[string]*Place),
	}
	g.places = make([]*Place, len(entries))
	for i := range entries {
		p := &entries[i]
		g.places[i] = p
		g.byKind[p.Kind] = append(g.byKind[p.Kind], p)
		switch p.Kind {
		case KindCountry:
			g.country[Normalize(p.Name)] = p
		case KindRegion:
			g.region[Normalize(p.Name)+"|"+Normalize(p.Country)] = p
		case KindCity:
			g.cityKey[Normalize(p.Name)+"|"+Normalize(p.Country)] = p
		}
		names := append([]string{p.Name}, p.Aliases...)
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			key := Normalize(n)
			if key == "" || seen[key] {
				continue
			}
			seen[key] = true
			g.byName[key] = append(g.byName[key], p)
		}
	}
	// Inherit continents from countries.
	for _, p := range g.places {
		if p.Kind != KindCountry {
			if c, ok := g.country[Normalize(p.Country)]; ok {
				p.Continent = c.Continent
			}
		}
	}
	// Ambiguous names resolve most-populous-first.
	for _, list := range g.byName {
		sort.SliceStable(list, func(i, j int) bool { return list[i].Pop > list[j].Pop })
	}
	return g
}

// diacritics maps accented runes to ASCII for fuzzy name matching.
var diacritics = strings.NewReplacer(
	"á", "a", "à", "a", "â", "a", "ä", "a", "ã", "a", "å", "a",
	"é", "e", "è", "e", "ê", "e", "ë", "e",
	"í", "i", "ì", "i", "î", "i", "ï", "i", "İ", "i", "ı", "i",
	"ó", "o", "ò", "o", "ô", "o", "ö", "o", "õ", "o", "ø", "o",
	"ú", "u", "ù", "u", "û", "u", "ü", "u",
	"ç", "c", "ñ", "n", "ß", "ss", "ł", "l", "ś", "s", "ż", "z", "ź", "z",
	"ć", "c", "ę", "e", "ą", "a", "ń", "n",
)

// Normalize folds a place name for lookup: lowercase, diacritics stripped,
// punctuation trimmed, inner whitespace collapsed.
func Normalize(name string) string {
	s := strings.ToLower(strings.TrimSpace(name))
	s = diacritics.Replace(s)
	s = strings.Trim(s, ".,;:!?\"'()[]")
	return strings.Join(strings.Fields(s), " ")
}

// Lookup returns all places matching a name or alias, most populous first.
func (g *Gazetteer) Lookup(name string) []*Place {
	return g.byName[Normalize(name)]
}

// LookupOne returns the most populous place matching a name, or nil.
func (g *Gazetteer) LookupOne(name string) *Place {
	if l := g.Lookup(name); len(l) > 0 {
		return l[0]
	}
	return nil
}

// Country returns the country place with the given canonical name or alias.
func (g *Gazetteer) Country(name string) *Place {
	if p, ok := g.country[Normalize(name)]; ok {
		return p
	}
	// Fall back to alias lookup restricted to countries.
	for _, p := range g.Lookup(name) {
		if p.Kind == KindCountry {
			return p
		}
	}
	return nil
}

// canonCountry resolves a country name or alias (e.g. "usa") to its
// canonical form; unknown names are returned unchanged.
func (g *Gazetteer) canonCountry(ctry string) string {
	if c := g.Country(ctry); c != nil {
		return c.Name
	}
	return ctry
}

// Region returns the region place with the given name inside a country
// (country aliases accepted).
func (g *Gazetteer) Region(name, ctry string) *Place {
	ctry = g.canonCountry(ctry)
	if p, ok := g.region[Normalize(name)+"|"+Normalize(ctry)]; ok {
		return p
	}
	for _, p := range g.Lookup(name) {
		if p.Kind == KindRegion && strings.EqualFold(p.Country, ctry) {
			return p
		}
	}
	return nil
}

// City returns the city place with the given name inside a country
// (country aliases accepted).
func (g *Gazetteer) City(name, ctry string) *Place {
	ctry = g.canonCountry(ctry)
	if p, ok := g.cityKey[Normalize(name)+"|"+Normalize(ctry)]; ok {
		return p
	}
	for _, p := range g.Lookup(name) {
		if p.Kind == KindCity && strings.EqualFold(p.Country, ctry) {
			return p
		}
	}
	return nil
}

// All returns every place of the given kind.
func (g *Gazetteer) All(k Kind) []*Place { return g.byKind[k] }

// Places returns every place.
func (g *Gazetteer) Places() []*Place { return g.places }

// Resolve maps a location tuple to the finest-granularity place it denotes,
// or nil if the tuple does not match the gazetteer.
func (g *Gazetteer) Resolve(l Location) *Place {
	if l.City != "" {
		if p := g.City(l.City, l.Country); p != nil {
			return p
		}
	}
	if l.Region != "" {
		if p := g.Region(l.Region, l.Country); p != nil {
			return p
		}
	}
	if l.Country != "" {
		return g.Country(l.Country)
	}
	return nil
}

// Canonicalize fills in missing components of a location from the gazetteer
// (e.g. adds the region and country of a known city) and rewrites each
// component to its canonical casing. It returns the input unchanged if the
// tuple cannot be resolved.
func (g *Gazetteer) Canonicalize(l Location) Location {
	p := g.Resolve(l)
	if p == nil {
		return l
	}
	switch p.Kind {
	case KindCity:
		return Location{City: p.Name, Region: p.Region, Country: p.Country}
	case KindRegion:
		return Location{Region: p.Name, Country: p.Country}
	default:
		return Location{Country: p.Name}
	}
}
