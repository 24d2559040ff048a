package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name                   string
		lat1, lon1, lat2, lon2 float64
		wantKM, tolKM          float64
	}{
		{"Amsterdam-Athens", 52.37, 4.90, 37.98, 23.73, 2160, 100},
		{"Chicago-Honolulu", 41.88, -87.63, 21.31, -157.86, 6790, 150},
		{"same point", 10, 10, 10, 10, 0, 0.001},
		{"equator quarter", 0, 0, 0, 90, math.Pi / 2 * EarthRadiusKM, 1},
	}
	for _, c := range cases {
		got := HaversineKM(c.lat1, c.lon1, c.lat2, c.lon2)
		if math.Abs(got-c.wantKM) > c.tolKM {
			t.Errorf("%s: got %.0f km, want %.0f ± %.0f", c.name, got, c.wantKM, c.tolKM)
		}
	}
}

func TestHaversineProperties(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		lat1 := math.Mod(a, 90)
		lon1 := math.Mod(b, 180)
		lat2 := math.Mod(c, 90)
		lon2 := math.Mod(d, 180)
		d1 := HaversineKM(lat1, lon1, lat2, lon2)
		d2 := HaversineKM(lat2, lon2, lat1, lon1)
		// Symmetric, non-negative, bounded by half circumference.
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9 && d1 <= math.Pi*EarthRadiusKM+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectedDistance(t *testing.T) {
	g := World()
	ams := g.City("Amsterdam", "Netherlands")
	if ams == nil {
		t.Fatal("Amsterdam missing")
	}
	// Streamer in Amsterdam playing on Amsterdam server: corrected distance
	// equals the city's spread, not zero (§3.3.3).
	got := CorrectedDistanceKM(ams, ams)
	if got != ams.SpreadKM || got <= 0 {
		t.Fatalf("self corrected distance = %v, want spread %v", got, ams.SpreadKM)
	}
	// Turkey -> Istanbul should be a few hundred km (paper: 371 km).
	tr := g.Country("Turkey")
	ist := g.City("Istanbul", "Turkey")
	cd := CorrectedDistanceKM(tr, ist)
	if cd < 250 || cd > 800 {
		t.Fatalf("Turkey->Istanbul corrected distance = %.0f, want a few hundred km", cd)
	}
}

func TestLocationString(t *testing.T) {
	l := Location{City: "Athens", Country: "Greece"}
	if got := l.String(); got != "Athens, Greece" {
		t.Fatalf("String() = %q", got)
	}
	if (Location{}).String() != "<unknown>" {
		t.Fatal("zero location string")
	}
	if !(Location{}).IsZero() || l.IsZero() {
		t.Fatal("IsZero")
	}
}

func TestLocationGranularity(t *testing.T) {
	if (Location{Country: "France"}).Granularity() != KindCountry {
		t.Fatal("country granularity")
	}
	if (Location{Region: "Ile-de-France", Country: "France"}).Granularity() != KindRegion {
		t.Fatal("region granularity")
	}
	if (Location{City: "Paris", Region: "Ile-de-France", Country: "France"}).Granularity() != KindCity {
		t.Fatal("city granularity")
	}
}

func TestSubsumesCompatible(t *testing.T) {
	la := Location{City: "Los Angeles", Region: "California", Country: "United States"}
	cal := Location{Region: "California", Country: "United States"}
	usa := Location{Country: "United States"}
	tex := Location{Region: "Texas", Country: "United States"}

	if !cal.Subsumes(la) || !usa.Subsumes(la) || !usa.Subsumes(cal) {
		t.Fatal("expected subsumption")
	}
	if la.Subsumes(cal) {
		t.Fatal("specific must not subsume general")
	}
	if tex.Subsumes(la) || tex.Compatible(la) {
		t.Fatal("Texas is not compatible with LA")
	}
	if !la.Compatible(cal) || !cal.Compatible(la) {
		t.Fatal("compatibility must be symmetric")
	}
	if (Location{}).Subsumes(la) {
		t.Fatal("empty location subsumes nothing")
	}
	if got := cal.MoreComplete(la); got != la {
		t.Fatalf("MoreComplete = %v", got)
	}
	if got := la.MoreComplete(cal); got != la {
		t.Fatalf("MoreComplete (reversed) = %v", got)
	}
}

func TestSubsumesCaseInsensitive(t *testing.T) {
	a := Location{Region: "california", Country: "UNITED STATES"}
	b := Location{City: "Los Angeles", Region: "California", Country: "United States"}
	if !a.Subsumes(b) {
		t.Fatal("subsumption should be case-insensitive")
	}
}

func TestGazetteerLookup(t *testing.T) {
	g := World()
	// Ambiguous name: Paris (France) should rank above Paris (Texas).
	paris := g.Lookup("Paris")
	if len(paris) < 2 {
		t.Fatalf("expected ambiguous Paris, got %d entries", len(paris))
	}
	if paris[0].Country != "France" {
		t.Fatalf("most populous Paris is %s, want France", paris[0].Country)
	}
	// Alias with diacritics.
	if p := g.LookupOne("São Paulo"); p == nil {
		t.Fatal("São Paulo alias lookup failed")
	}
	// Country aliases.
	if g.Country("USA") == nil || g.Country("UK") == nil || g.Country("Korea") == nil {
		t.Fatal("country alias lookup failed")
	}
	if g.Country("Atlantis") != nil {
		t.Fatal("unknown country should be nil")
	}
}

func TestGazetteerResolve(t *testing.T) {
	g := World()
	p := g.Resolve(Location{City: "Chicago", Country: "United States"})
	if p == nil || p.Kind != KindCity || p.Region != "Illinois" {
		t.Fatalf("Resolve Chicago = %+v", p)
	}
	// Region fallback when city unknown.
	p = g.Resolve(Location{City: "Nowhereville", Region: "Texas", Country: "United States"})
	if p == nil || p.Kind != KindRegion || p.Name != "Texas" {
		t.Fatalf("Resolve fallback = %+v", p)
	}
	if g.Resolve(Location{}) != nil {
		t.Fatal("empty location resolves to nil")
	}
}

func TestCanonicalize(t *testing.T) {
	g := World()
	got := g.Canonicalize(Location{City: "chicago", Country: "usa"})
	want := Location{City: "Chicago", Region: "Illinois", Country: "United States"}
	if got != want {
		t.Fatalf("Canonicalize = %+v, want %+v", got, want)
	}
	// Unresolvable location returned unchanged.
	weird := Location{City: "Xyzzy"}
	if got := g.Canonicalize(weird); got != weird {
		t.Fatalf("unresolvable changed: %+v", got)
	}
}

func TestContinentInheritance(t *testing.T) {
	g := World()
	cases := map[string]Continent{
		"Chicago":   NorthAmerica,
		"Sao Paulo": SouthAmerica,
		"Tokyo":     Asia,
		"Berlin":    Europe,
		"Sydney":    Oceania,
		"Lagos":     Africa,
	}
	for name, want := range cases {
		p := g.LookupOne(name)
		if p == nil {
			t.Fatalf("%s missing", name)
		}
		if p.Continent != want {
			t.Errorf("%s continent = %s, want %s", name, p.Continent, want)
		}
	}
	if g.Resolve(Location{Country: "Atlantis"}) != nil {
		t.Fatal("unknown location should not resolve")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  São Paulo ":   "sao paulo",
		"Zürich":         "zurich",
		"WASHINGTON":     "washington",
		"St.  Louis":     "st. louis", // collapses inner spaces
		"(Athens)":       "athens",
		"Île-de-France!": "ile-de-france",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegionKeys(t *testing.T) {
	l := Location{City: "Toronto", Region: "Ontario", Country: "Canada"}
	if l.RegionKey() != (Location{Region: "Ontario", Country: "Canada"}) {
		t.Fatal("RegionKey")
	}
	if l.CountryKey() != (Location{Country: "Canada"}) {
		t.Fatal("CountryKey")
	}
	if l.Key() == l.RegionKey().Key() {
		t.Fatal("keys must differ across granularities")
	}
}

func TestGazetteerDataSanity(t *testing.T) {
	g := World()
	if len(g.All(KindCountry)) < 60 {
		t.Fatalf("too few countries: %d", len(g.All(KindCountry)))
	}
	if len(g.All(KindRegion)) < 40 {
		t.Fatalf("too few regions: %d", len(g.All(KindRegion)))
	}
	if len(g.All(KindCity)) < 100 {
		t.Fatalf("too few cities: %d", len(g.All(KindCity)))
	}
	for _, p := range g.Places() {
		if p.Lat < -90 || p.Lat > 90 || p.Lon < -180 || p.Lon > 180 {
			t.Errorf("%s: bad coordinates (%v, %v)", p.Name, p.Lat, p.Lon)
		}
		if p.SpreadKM < 0 {
			t.Errorf("%s: negative spread", p.Name)
		}
		if p.Pop < 0 {
			t.Errorf("%s: negative population", p.Name)
		}
		if p.Kind != KindCountry && p.Country == "" {
			t.Errorf("%s: missing country", p.Name)
		}
		if p.Kind != KindCountry && g.Country(p.Country) == nil {
			t.Errorf("%s: country %q not in gazetteer", p.Name, p.Country)
		}
		if p.Kind == KindCity && p.Region != "" && g.Region(p.Region, p.Country) == nil {
			t.Errorf("%s: region %q not in gazetteer", p.Name, p.Region)
		}
		if p.Kind == KindCountry && (p.InternetFrac <= 0 || p.InternetFrac > 1) {
			t.Errorf("%s: bad internet fraction %v", p.Name, p.InternetFrac)
		}
	}
}

func TestDoughnutMembership(t *testing.T) {
	// Sanity for Fig. 10: the corrected distance from DC to the Chicago
	// server should land in the 500-1000 km doughnut; Texas in 1000-1500.
	g := World()
	chi := g.City("Chicago", "United States")
	dc := g.Region("District of Columbia", "United States")
	dal := g.City("Dallas", "United States")
	dDC := CorrectedDistanceKM(dc, chi)
	dDal := CorrectedDistanceKM(dal, chi)
	if dDC < 500 || dDC > 1000 {
		t.Errorf("DC corrected distance = %.0f, want in [500,1000]", dDC)
	}
	if dDal < 1000 || dDal > 1500 {
		t.Errorf("Dallas corrected distance = %.0f, want in [1000,1500]", dDal)
	}
}
