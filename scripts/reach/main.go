// Command reach is the reachability gate: it lists every function and
// method that no binary of the module links, and fails unless that list is
// exactly the committed allowlist.
//
// It builds every main package under cmd/ and examples/ with inlining off
// (-gcflags=all=-l, so a call that was inlined still leaves its callee's
// symbol), reads the text symbols of each binary with go tool nm, and parses
// every non-test .go file of the module outside bench/ and scripts/ with
// go/parser. A declared function no binary links is listed. The gate exits 1
// when a listed function is not on allowlist.txt, or when an allowlist entry
// is linked again or no longer declared; each allowlist line is a symbol and
// its one reason. The linker keeps a method whose name and signature match
// a method the binary calls through some interface (Len, String, Error, …)
// whether or not anything calls it, so such a method is never reported; a
// coverage census finds those. Run it from anywhere inside the module:
//
//	go run ./scripts/reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// binaryRoots hold one main package per subdirectory: the module's binaries.
var binaryRoots = []string{"cmd", "examples"}

// skipDirs are not product code: bench/ is its own module, scripts/ holds
// this gate, testdata/ holds fixtures.
var skipDirs = map[string]bool{"bench": true, "scripts": true, "testdata": true}

func main() {
	os.Exit(run(os.Stdout, os.Stderr))
}

func run(stdout, stderr io.Writer) int {
	problems, err := check(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "reach:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// check prints the gate's one-line summary and returns its disagreements
// with the allowlist.
func check(stdout io.Writer) ([]string, error) {
	root, module, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	fns, err := declared(root, module)
	if err != nil {
		return nil, err
	}
	linked, nbin, err := linkedSymbols(root, module)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(root, "scripts", "reach", "allowlist.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow, err := readAllowlist(f)
	if err != nil {
		return nil, err
	}
	dead := unlinked(fns, linked)
	lines := 0
	for _, fn := range dead {
		lines += fn.Lines
	}
	fmt.Fprintf(stdout, "%d functions declared, %d binaries, %d unlinked (%d lines), %d allowlisted\n",
		len(fns), nbin, len(dead), lines, len(allow))
	return audit(fns, dead, allow), nil
}

// fn is one declared function or method.
type fn struct {
	Sym   string // its linker symbol, generic brackets stripped
	Pos   string // file:line of its declaration, relative to the module root
	Lines int
}

// moduleRoot finds go.mod above the working directory and returns its
// directory and module path.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("%s/go.mod names no module", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// declared parses every non-test .go file under root outside skipDirs and
// returns the functions they declare, in file order.
func declared(root, module string) ([]fn, error) {
	byDir := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (skipDirs[d.Name()] || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	slices.Sort(dirs)
	var out []fn
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		names := byDir[dir]
		slices.Sort(names) // the order go build hands the compiler, which numbers init funcs
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			relName, _ := filepath.Rel(root, name)
			f, err := parser.ParseFile(fset, filepath.ToSlash(relName), src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		out = append(out, packageFuncs(fset, pkg, files)...)
	}
	return out, nil
}

// packageFuncs lists the functions of one package's files, given in the
// order the compiler sees them, under the symbols the linker gives them.
func packageFuncs(fset *token.FileSet, pkg string, files []*ast.File) []fn {
	var out []fn
	inits := 0
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			x := fn{
				Pos:   fmt.Sprintf("%s:%d", start.Filename, start.Line),
				Lines: end.Line - start.Line + 1,
			}
			switch {
			case fd.Recv != nil:
				x.Sym = pkg + "." + receiver(fd.Recv.List[0].Type) + "." + fd.Name.Name
			case fd.Name.Name == "init":
				// The compiler renames the package's func inits init.0,
				// init.1, ... in the order it reads them.
				x.Sym = fmt.Sprintf("%s.init.%d", pkg, inits)
				inits++
			default:
				x.Sym = pkg + "." + fd.Name.Name
			}
			out = append(out, x)
		}
	}
	return out
}

// receiver renders a method's receiver type as the linker spells it, type
// parameters dropped: T or (*T).
func receiver(t ast.Expr) string {
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// linkedSymbols builds every binary with inlining off into a scratch
// directory and returns the union of their text symbols, normalized.
func linkedSymbols(root, module string) (map[string]bool, int, error) {
	var pkgs []string
	for _, r := range binaryRoots {
		entries, err := os.ReadDir(filepath.Join(root, r))
		if err != nil {
			return nil, 0, err
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgs = append(pkgs, r+"/"+e.Name())
			}
		}
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	args := []string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}
	for _, p := range pkgs {
		args = append(args, "./"+p)
	}
	if err := goCmd(root, nil, args...); err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, p := range pkgs {
		var nm bytes.Buffer
		if err := goCmd(root, &nm, "tool", "nm", filepath.Join(tmp, filepath.Base(p))); err != nil {
			return nil, 0, err
		}
		addSymbols(linked, &nm, module+"/"+p)
	}
	return linked, len(pkgs), nil
}

func goCmd(dir string, stdout io.Writer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, &stderr)
	}
	return nil
}

// addSymbols adds the text symbols of one binary's go tool nm listing to
// linked. The binary's main package is renamed from main to mainPkg, and
// every bracketed type-argument list is dropped, so an instantiation of a
// generic function or of a method on a generic type counts for its
// declaration.
func addSymbols(linked map[string]bool, nm io.Reader, mainPkg string) {
	sc := bufio.NewScanner(nm)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  4b2f20 T tero/internal/x.(*T).M": address, type, then the name,
		// which may hold spaces inside type arguments.
		fields := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		name := stripBrackets(fields[2])
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = mainPkg + "." + rest
		}
		linked[name] = true
	}
}

// stripBrackets removes every [...] group, nested ones included.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unlinked returns the functions whose symbol no binary links.
func unlinked(fns []fn, linked map[string]bool) []fn {
	var out []fn
	for _, f := range fns {
		if !linked[f.Sym] {
			out = append(out, f)
		}
	}
	return out
}

// readAllowlist reads "symbol reason..." lines; blank lines and lines
// starting with # are skipped. Every entry needs a reason.
func readAllowlist(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("allowlist line %d: %s has no reason", n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("allowlist line %d: %s listed twice", n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// audit compares the unlinked functions with the allowlist and returns one
// line per disagreement, sorted.
func audit(fns, dead []fn, allow map[string]string) []string {
	var problems []string
	isDead := map[string]bool{}
	for _, f := range dead {
		isDead[f.Sym] = true
		if _, ok := allow[f.Sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary and not on the allowlist: delete it, move it into a _test.go file, or allowlist it with its reason",
				f.Pos, f.Sym))
		}
	}
	isDeclared := map[string]bool{}
	for _, f := range fns {
		isDeclared[f.Sym] = true
	}
	for sym := range allow {
		switch {
		case !isDeclared[sym]:
			problems = append(problems, fmt.Sprintf("allowlist: %s is no longer declared: drop its line", sym))
		case !isDead[sym]:
			problems = append(problems, fmt.Sprintf("allowlist: %s is linked now: drop its line", sym))
		}
	}
	slices.Sort(problems)
	return problems
}
