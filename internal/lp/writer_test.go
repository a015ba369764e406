package lp

import (
	"strings"
	"testing"
)

func TestWriteLPFormat(t *testing.T) {
	m := NewModel("demo", Maximize)
	x := m.NewVar(0, 10, true, "sigma(a)")
	y := m.NewVar(-2, 3, false, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, -1)
	m.AddConstr([]Term{{x, 1}, {y, 2}}, LE, 7)
	m.AddConstr([]Term{{x, 1}}, GE, 1)

	var b strings.Builder
	if err := m.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Maximize", "Subject To", "Bounds", "Generals", "End",
		"+3 sigma_a__0", "<= 7", ">= 1", "0 <= sigma_a__0 <= 10", "-2 <= y_1 <= 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP output missing %q:\n%s", want, out)
		}
	}
	// The continuous variable must not appear in Generals.
	generals := out[strings.Index(out, "Generals"):]
	if strings.Contains(generals, "y_1") {
		t.Fatalf("continuous variable listed as integer:\n%s", out)
	}
}

func TestWriteLPEmptyObjective(t *testing.T) {
	m := NewModel("empty", Minimize)
	m.NewVar(0, 1, false, "x")
	var b strings.Builder
	if err := m.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Minimize") {
		t.Fatal("missing sense")
	}
}

func TestSanitizeLPName(t *testing.T) {
	for in, want := range map[string]string{
		"sigma(a)": "sigma_a_",
		"x":        "x",
		"9lives":   "v9lives",
		"":         "",
	} {
		if got := sanitizeLPName(in); got != want {
			t.Fatalf("sanitize(%q)=%q, want %q", in, got, want)
		}
	}
}
