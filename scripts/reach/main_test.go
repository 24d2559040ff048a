package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parsePkg declares the functions of one package given as file sources, in
// the order the compiler would read them.
func parsePkg(t *testing.T, pkg string, srcs ...string) []fn {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, string(rune('a'+i))+".go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return packageFuncs(fset, pkg, files)
}

// symbols reads a fake go tool nm listing.
func symbols(listing, mainPkg string) map[string]bool {
	linked := map[string]bool{}
	addSymbols(linked, strings.NewReader(listing), mainPkg)
	return linked
}

func syms(fns []fn) []string {
	var out []string
	for _, f := range fns {
		out = append(out, f.Sym)
	}
	return out
}

const libSrc = `package lib

func Used() {}

func Unused() {}

type T struct{}

func (T) Value()    {}
func (*T) Pointer() {}
`

func TestUnlistedUnlinkedFunctionFails(t *testing.T) {
	fns := parsePkg(t, "m/lib", libSrc)
	linked := symbols(`
  401000 T m/lib.Used
  401020 T m/lib.T.Value
  401040 T m/lib.(*T).Pointer
  401060 D m/lib.Unused
`, "m/cmd/x")
	dead := unlinked(fns, linked)
	if got := strings.Join(syms(dead), " "); got != "m/lib.Unused" {
		t.Fatalf("unlinked = %q, want only m/lib.Unused (a data symbol of that name links nothing)", got)
	}
	problems := audit(fns, dead, map[string]string{})
	if len(problems) != 1 || !strings.Contains(problems[0], "m/lib.Unused is linked by no binary and not on the allowlist") ||
		!strings.HasPrefix(problems[0], "a.go:5: ") {
		t.Fatalf("problems = %q, want one naming m/lib.Unused at a.go:5", problems)
	}
	if problems := audit(fns, dead, map[string]string{"m/lib.Unused": "kept for a test"}); len(problems) != 0 {
		t.Fatalf("allowlisted function still fails the gate: %q", problems)
	}
}

func TestStaleAllowlistEntryFails(t *testing.T) {
	fns := parsePkg(t, "m/lib", libSrc)
	linked := symbols(`
  401000 T m/lib.Used
  401010 T m/lib.Unused
  401020 T m/lib.T.Value
  401040 t m/lib.(*T).Pointer
`, "m/cmd/x")
	dead := unlinked(fns, linked)
	if len(dead) != 0 {
		t.Fatalf("unlinked = %q, want none", syms(dead))
	}
	problems := audit(fns, dead, map[string]string{
		"m/lib.Unused": "was unlinked once",
		"m/lib.Gone":   "deleted since",
	})
	want := []string{
		"allowlist: m/lib.Gone is no longer declared: drop its line",
		"allowlist: m/lib.Unused is linked now: drop its line",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

func TestInitGenericsAndMainMatch(t *testing.T) {
	fns := parsePkg(t, "m/gen", `package gen

func init() {}

func Map[T, U any](xs []T, f func(T) U) []U { return nil }

type List[T any] struct{ xs []T }

func (l *List[T]) Push(x T) {}
func (l List[T]) Len() int  { return 0 }

type Pair[K comparable, V any] struct{}

func (p *Pair[K, V]) Swap() {}
func (p *Pair[K, V]) Unused() {}
`, `package gen

func init() {}
`)
	wantDecl := []string{
		"m/gen.init.0", "m/gen.Map", "m/gen.(*List).Push", "m/gen.List.Len",
		"m/gen.(*Pair).Swap", "m/gen.(*Pair).Unused", "m/gen.init.1",
	}
	if got := syms(fns); strings.Join(got, " ") != strings.Join(wantDecl, " ") {
		t.Fatalf("declared %q, want %q", got, wantDecl)
	}
	linked := symbols(`
  401000 T m/gen.init.0
  401010 T m/gen.init
  401020 T m/gen.Map[go.shape.int,go.shape.string]
  401030 T m/gen.Map[go.shape.int,go.shape.string].func1
  401040 T m/gen.(*List[go.shape.struct { A int; B []string }]).Push
  401050 T m/gen.List[go.shape.int].Len
  401060 T m/gen.(*Pair[go.shape.string,go.shape.map[string][]int]).Swap
  401070 T main.main
  401080 T main.run
`, "m/cmd/x")
	dead := unlinked(fns, linked)
	if got := strings.Join(syms(dead), " "); got != "m/gen.(*Pair).Unused m/gen.init.1" {
		t.Fatalf("unlinked = %q, want the Pair method no instantiation links and the second init", got)
	}
	for _, s := range []string{"m/cmd/x.main", "m/cmd/x.run"} {
		if !linked[s] {
			t.Errorf("%s missing: a binary's main package counts under its import path", s)
		}
	}
	if linked["main.main"] {
		t.Error("main.main kept under the name every binary shares")
	}
}

func TestAllowlistNeedsReasons(t *testing.T) {
	if _, err := readAllowlist(strings.NewReader("# comment\n\nm/lib.A\n")); err == nil {
		t.Error("an entry without a reason was accepted")
	}
	if _, err := readAllowlist(strings.NewReader("m/lib.A one\nm/lib.A two\n")); err == nil {
		t.Error("a duplicate entry was accepted")
	}
	allow, err := readAllowlist(strings.NewReader("# comment\nm/lib.A bench/: used there\n"))
	if err != nil || allow["m/lib.A"] != "bench/: used there" || len(allow) != 1 {
		t.Errorf("readAllowlist = %v, %v", allow, err)
	}
}
