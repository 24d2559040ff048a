package geoparse

import (
	"strings"
	"testing"

	"tero/internal/geo"
	"tero/internal/worldsim"
)

// prefixOracle is Xponents' prefix fallback as it was written before
// Gazetteer.PrefixOf: every place name normalised on every call.
func prefixOracle(g *geo.Gazetteer, norm string) *geo.Place {
	for _, p := range g.Places() {
		pn := geo.Normalize(p.Name)
		if len(pn) >= 5 && strings.HasPrefix(norm, pn) {
			return p
		}
	}
	return nil
}

// TestPrefixOfMatchesOracle holds Gazetteer.PrefixOf to the loop it
// replaced on every name and alias of the world gazetteer, their demonym-like
// "ian"/"ese" variants, and every token of the descriptions of three
// simulated worlds.
func TestPrefixOfMatchesOracle(t *testing.T) {
	g := gaz()
	check := func(s string) {
		t.Helper()
		norm := geo.Normalize(s)
		if got, want := g.PrefixOf(norm), prefixOracle(g, norm); got != want {
			t.Fatalf("PrefixOf(%q) = %v, the old loop %v", norm, got, want)
		}
	}
	matched := 0
	for _, p := range g.Places() {
		for _, n := range append([]string{p.Name}, p.Aliases...) {
			for _, s := range []string{n, n + "ian", n + "ese"} {
				check(s)
				if g.PrefixOf(geo.Normalize(s)) != nil {
					matched++
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no gazetteer name matched as a prefix: the comparison proves nothing")
	}
	tokens := 0
	for _, seed := range []int64{1, 5, 9} {
		cfg := worldsim.DefaultConfig(seed)
		cfg.Streamers = 300
		for _, st := range worldsim.New(cfg).Streamers {
			profiles := []worldsim.Profile{st.Profile}
			if st.ProfileAfterMove != nil {
				profiles = append(profiles, *st.ProfileAfterMove)
			}
			for _, pr := range profiles {
				for _, tok := range tokenize(pr.Description) {
					check(tok.norm)
					tokens++
				}
			}
		}
	}
	if tokens == 0 {
		t.Fatal("the worlds' descriptions have no tokens")
	}
}
