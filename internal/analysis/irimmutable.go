package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"regsat/internal/analysis/framework"
)

// IRImmutable enforces the ir.Snapshot immutability contract: a batch memo
// entry's snapshot is shared across goroutines and across structurally
// identical graphs, so every field, slice, bitset, and matrix reachable from one is
// read-only outside internal/ir's own constructors. A single write through
// an aliased row corrupts every holder of the snapshot at once — without a
// data-race signature when the readers come later.
var IRImmutable = &framework.Analyzer{
	Name: "irimmutable",
	Doc: "forbid writes to ir.Snapshot storage outside internal/ir\n\n" +
		"Snapshots (and their TypeTable/CSR parts) are immutable after Build:\n" +
		"the batch memo shares one across goroutines and structural twins,\n" +
		"and every analysis layer reads it. This analyzer flags assignments, element stores, copy/append\n" +
		"targets, and bitset mutations whose destination is reached from a\n" +
		"snapshot — including through one level of local aliasing\n" +
		"(row := s.AP.D[u]; row[v] = x).",
	Run: runIRImmutable,
}

// bitsetMutators are the graph.BitSet methods that write the receiver.
var bitsetMutators = map[string]bool{"Set": true, "Clear": true}

func runIRImmutable(pass *framework.Pass) error {
	if pass.Pkg.Path() == irPkg {
		return nil // the constructor package legitimately writes
	}
	info := pass.TypesInfo
	eachFunc(pass.Files, func(node ast.Node, _ string) {
		body, _ := funcBody(node)
		if body == nil {
			return
		}
		// aliased holds locals bound to snapshot-reachable storage
		// (slices, maps, pointers only — value copies are safe).
		aliased := map[types.Object]bool{}
		derives := func(e ast.Expr) bool { return false }
		derives = func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.Ident:
				if obj := objOf(info, x); obj != nil && aliased[obj] {
					return true
				}
				return isIRStorage(typeOf(info, x))
			case *ast.SelectorExpr:
				if isIRStorage(typeOf(info, x)) {
					return true
				}
				return derives(x.X)
			case *ast.IndexExpr:
				return derives(x.X)
			case *ast.SliceExpr:
				return derives(x.X)
			case *ast.StarExpr:
				return derives(x.X)
			case *ast.ParenExpr:
				return derives(x.X)
			case *ast.CallExpr:
				// CSR.Row returns slices aliasing snapshot storage.
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Row" {
					return derives(sel.X)
				}
				return false
			}
			return false
		}
		reportWrite := func(pos token.Pos, what string) {
			pass.Reportf(pos, "write to interned ir.Snapshot storage (%s): snapshots are immutable and shared; build a new graph/snapshot instead", what)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						if derives(l.X) {
							reportWrite(l.Pos(), "field "+l.Sel.Name)
						}
					case *ast.IndexExpr:
						if derives(l.X) {
							reportWrite(l.Pos(), "element store")
						}
					case *ast.StarExpr:
						if derives(l.X) {
							reportWrite(l.Pos(), "pointer store")
						}
					}
				}
				// One-level alias tracking: v := <snapshot-reachable> where
				// the value shares backing storage.
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						if derives(st.Rhs[i]) && sharesStorage(typeOf(info, st.Rhs[i])) {
							if obj := objOf(info, id); obj != nil {
								aliased[obj] = true
							}
						}
					}
				} else if len(st.Rhs) == 1 && derives(st.Rhs[0]) {
					// Multi-value form: dst, wt := s.Fwd.Row(u) — every
					// result that shares storage aliases the snapshot.
					for _, lhs := range st.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						if obj := objOf(info, id); obj != nil && sharesStorage(obj.Type()) {
							aliased[obj] = true
						}
					}
				}
			case *ast.IncDecStmt:
				switch x := st.X.(type) {
				case *ast.SelectorExpr:
					if derives(x.X) {
						reportWrite(x.Pos(), "field "+x.Sel.Name)
					}
				case *ast.IndexExpr:
					if derives(x.X) {
						reportWrite(x.Pos(), "element store")
					}
				}
			case *ast.CallExpr:
				if sel, ok := st.Fun.(*ast.SelectorExpr); ok && bitsetMutators[sel.Sel.Name] &&
					isNamedType(typeOf(info, sel.X), graphPkg, "BitSet") && derives(sel.X) {
					reportWrite(sel.Pos(), "BitSet."+sel.Sel.Name)
				}
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					if info.Uses[id] == types.Universe.Lookup("copy") && derives(st.Args[0]) {
						reportWrite(st.Args[0].Pos(), "copy destination")
					}
				}
			}
			return true
		})
	})
	return nil
}

// isIRStorage reports whether t (through pointers) is one of the shared
// snapshot storage structs.
func isIRStorage(t types.Type) bool {
	for _, name := range [...]string{"Snapshot", "TypeTable", "CSR"} {
		if isNamedType(t, irPkg, name) {
			return true
		}
	}
	return false
}

// sharesStorage reports whether a value of type t aliases its source's
// backing memory when copied (so writes through the copy are writes to the
// source).
func sharesStorage(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}
