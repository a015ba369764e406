package lp

import (
	"fmt"
	"io"
	"strings"
)

// WriteLP renders the model in the CPLEX LP text format, so any external
// solver can cross-check the in-repo one (the paper solved these systems
// with CPLEX). Variable names are sanitized to the LP-format alphabet and
// de-duplicated deterministically.
func (m *Model) WriteLP(w io.Writer) error {
	names := m.lpNames()
	if _, err := fmt.Fprintf(w, "\\ model %s\n", m.name); err != nil {
		return err
	}
	section := "Minimize"
	if m.sense == Maximize {
		section = "Maximize"
	}
	fmt.Fprintf(w, "%s\n obj:", section)
	wrote := false
	for v, info := range m.vars {
		if info.obj == 0 {
			continue
		}
		fmt.Fprintf(w, " %+g %s", info.obj, names[v])
		wrote = true
	}
	if !wrote {
		fmt.Fprintf(w, " 0 %s", names[0])
	}
	fmt.Fprintf(w, "\nSubject To\n")
	for i := range m.rows {
		terms, rel, rhs := m.Constr(i)
		fmt.Fprintf(w, " c%d:", i)
		for _, t := range terms {
			fmt.Fprintf(w, " %+g %s", t.Coef, names[t.Var])
		}
		fmt.Fprintf(w, " %s %g\n", rel, rhs)
	}
	fmt.Fprintf(w, "Bounds\n")
	for v, info := range m.vars {
		fmt.Fprintf(w, " %g <= %s <= %g\n", info.lo, names[v], info.hi)
	}
	var generals []string
	for v, info := range m.vars {
		if info.integer {
			generals = append(generals, names[v])
		}
	}
	if len(generals) > 0 {
		fmt.Fprintf(w, "Generals\n %s\n", strings.Join(generals, " "))
	}
	_, err := fmt.Fprintf(w, "End\n")
	return err
}

// lpNames produces unique LP-format-safe variable names.
func (m *Model) lpNames() []string {
	names := make([]string, len(m.vars))
	seen := map[string]int{}
	for v := range m.vars {
		base := sanitizeLPName(m.VarName(Var(v)))
		if base == "" {
			base = "x"
		}
		name := fmt.Sprintf("%s_%d", base, v)
		if seen[name] > 0 {
			name = fmt.Sprintf("%s_%d_%d", base, v, seen[name])
		}
		seen[name]++
		names[v] = name
	}
	return names
}

func sanitizeLPName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	out := b.String()
	if out != "" && out[0] >= '0' && out[0] <= '9' {
		out = "v" + out
	}
	return out
}
