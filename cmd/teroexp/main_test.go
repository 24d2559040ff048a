package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"tero/internal/experiments"
)

// maxFlags is the ceiling on the command's flag surface; raising it means
// adding an option on purpose.
const maxFlags = 14

// TestListPrintsEveryExperiment boots the command as `teroexp -list`: one
// line per registered experiment on the given stdout, exit 0.
func TestListPrintsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, &stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	list := experiments.List()
	if len(lines) != len(list) {
		t.Fatalf("%d lines for %d experiments:\n%s", len(lines), len(list), &stdout)
	}
	for i, e := range list {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e[0] {
			t.Errorf("line %d = %q, want experiment %q", i, lines[i], e[0])
		}
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"no-such-experiment"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no-such-experiment") {
		t.Errorf("stderr does not name the experiment:\n%s", &stderr)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-concurrency"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "flag provided but not defined: -concurrency"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, &stderr)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-dist-fleets") {
		t.Errorf("usage lacks -dist-fleets:\n%s", &stderr)
	}
}

// TestFlagSurfaceBounded keeps the flag count from silently regrowing.
func TestFlagSurfaceBounded(t *testing.T) {
	fs := flag.NewFlagSet("teroexp", flag.ContinueOnError)
	new(options).register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n > maxFlags {
		t.Errorf("teroexp declares %d flags, want at most %d", n, maxFlags)
	}
}
