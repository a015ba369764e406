package reduce

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/lp"
	"regsat/internal/rs"
)

// corpusModelsSHA256 is the hash of every Section 3 and Section 4 model of
// the committed acyclic corpus, rendered by the LP writer. It pins the
// model builders and lp.Model.AddConstr's row storage (term order,
// duplicate sums, dropped zeros) bit for bit.
const corpusModelsSHA256 = "820d51dc67b8d1da7ed48b886916afd073abc13fd383fd6bd4c37b9c0dd76156"

// TestCorpusModelsRenderUnchanged renders, for every acyclic corpus graph
// and register type, the Section 3 saturation model with and without the
// paper's model optimizations and the Section 4 coloring model for two
// register budgets (π ordering on), and compares the hash of the LP text.
func TestCorpusModelsRenderUnchanged(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.ddg")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus glob: %d files, %v", len(files), err)
	}
	h := sha256.New()
	models := 0
	write := func(m *lp.Model) {
		t.Helper()
		if err := m.WriteLP(h); err != nil {
			t.Fatal(err)
		}
		models++
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if cyclic.Detect(string(raw)) {
			continue
		}
		g, err := ddg.ParseString(string(raw))
		if err == nil {
			err = g.Finalize()
		}
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, typ := range g.Types() {
			an, err := rs.NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			for _, reduced := range []bool{true, false} {
				m, _, _, err := rs.BuildSaturationModel(an, reduced)
				if err != nil {
					t.Fatalf("%s/%s: %v", file, typ, err)
				}
				write(m)
			}
			for _, r := range []int{2, 3} {
				m, _, _, err := coloringModel(g, typ, an, r, ILPOptions{ApplyReductions: true, GuaranteeDAG: true})
				if err != nil {
					t.Fatalf("%s/%s R=%d: %v", file, typ, r, err)
				}
				write(m)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusModelsSHA256 {
		t.Fatalf("%d corpus models render to sha256 %s, want %s", models, got, corpusModelsSHA256)
	}
}
