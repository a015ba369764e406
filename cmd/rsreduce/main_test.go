package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestReduceKernel(t *testing.T) {
	out, _, err := runCLI(t, "-kernel", "spec-swim", "-r", "3", "-type", "float", "-emit")
	if err != nil && !errors.Is(err, errSpill) {
		t.Fatal(err)
	}
	if !strings.Contains(out, "budget R=3") {
		t.Fatalf("missing budget line:\n%s", out)
	}
	if !strings.Contains(out, "reduced RS=") && !strings.Contains(out, "NOT reducible") &&
		!strings.Contains(out, "already within budget") {
		t.Fatalf("no reduction verdict:\n%s", out)
	}
}

func TestReduceCorpusWithinBudget(t *testing.T) {
	// A generous budget: every corpus graph fits, nothing spills.
	out, _, err := runCLI(t, "-r", "64", "-type", "float", "../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "already within budget") {
		t.Fatalf("expected within-budget outcomes:\n%s", out)
	}
}

func TestReduceBadInputs(t *testing.T) {
	if _, _, err := runCLI(t, "-method", "magic", "-kernel", "fig2"); err == nil {
		t.Fatal("bad method accepted")
	}
	if _, _, err := runCLI(t); err == nil {
		t.Fatal("no input accepted")
	}
}
