package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"regsat/internal/analysis/framework"
)

// FPKey enforces the cache-keying contract every store in the repo shares:
// results are keyed by the ir structural fingerprint plus a *canonicalized*
// options string (rsOptionsKey, solver.Options.Key), never by pointer
// identity or by raw option structs. A pointer-keyed cache silently stops
// hitting across structurally identical graphs (the whole point of the
// batch memo), and a raw-options key splits entries whenever an
// irrelevant-but-unequal field differs.
var FPKey = &framework.Analyzer{
	Name: "fpkey",
	Doc: "caches must be keyed by fingerprint + canonical options\n\n" +
		"Flags, in cache-shaped types (name matching memo/cache/store):\n" +
		"map fields keyed by pointers or interfaces. Everywhere:\n" +
		"maps keyed by raw *Options structs (canonicalize to a key string\n" +
		"first) and %p in format strings used to build keys.",
	Run: runFPKey,
}

// cacheTypeRe matches struct type names that hold cached state.
var cacheTypeRe = regexp.MustCompile(`(?i)(memo|cache|store)`)

func runFPKey(pass *framework.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.TypeSpec:
				st, ok := node.Type.(*ast.StructType)
				if !ok || !cacheTypeRe.MatchString(node.Name.Name) {
					return true
				}
				for _, field := range st.Fields.List {
					t := typeOf(info, field.Type)
					if t == nil {
						continue
					}
					m, ok := types.Unalias(t).Underlying().(*types.Map)
					if !ok {
						continue
					}
					switch types.Unalias(m.Key()).Underlying().(type) {
					case *types.Pointer, *types.Interface:
						pass.Reportf(field.Pos(), "cache type %s keyed by %s: key caches by the ir fingerprint and a canonical options string, not pointer identity (hits must survive re-parsing and structural twins)", node.Name.Name, m.Key())
					}
				}
			case *ast.MapType:
				kt := typeOf(info, node.Key)
				if named, ok := derefNamed(kt); ok && strings.HasSuffix(named.Obj().Name(), "Options") {
					pass.Reportf(node.Key.Pos(), "map keyed by raw %s struct: canonicalize options to a key string (cf. batch.rsOptionsKey, solver.Options.Key) so equivalent configurations share entries", named.Obj().Name())
				}
			case *ast.CallExpr:
				if fmtName := fmtKeyCall(info, node); fmtName != "" && len(node.Args) > 0 {
					if lit, ok := node.Args[0].(*ast.BasicLit); ok && strings.Contains(lit.Value, "%p") {
						pass.Reportf(lit.Pos(), "%%p in %s: pointer identity must never reach a cache key — use the ir fingerprint", fmtName)
					}
				}
			}
			return true
		})
	}
	return nil
}

// fmtKeyCall returns the qualified name when call is a fmt formatting
// function whose output plausibly feeds a key, "" otherwise.
func fmtKeyCall(info *types.Info, call *ast.CallExpr) string {
	for _, name := range [...]string{"Sprintf", "Errorf", "Sprint", "Appendf"} {
		if pkgFuncCall(info, call, "fmt", name) {
			return "fmt." + name
		}
	}
	return ""
}
