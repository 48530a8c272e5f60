package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"geostat/internal/lint/analysis"
)

// ColAccess guards the chunked-SoA dataset core: the column slices
// (dataset.Columns.X/Y/Chunks) and per-chunk aggregates (dataset.Chunk's
// fields) are shared, read-only views of a Dataset's internal storage.
// Reading them is the whole point of the columnar API — the hot loops in
// kde/kfunc/idw iterate the slices directly — but any mutation outside
// internal/dataset corrupts the dataset behind its owner's back and
// silently desynchronises the chunk aggregates (each chunk's bounding box)
// from the coordinates they summarise. The analyzer therefore flags
// writes, compound assignments, ++/-- and address-taking of those fields
// (including element writes like cols.X[i] = v) in every package except
// internal/dataset itself; a changed point set is built through the
// Dataset API (Subset, FilterBox, ...), which builds its aggregates.
var ColAccess = &analysis.Analyzer{
	Name: "colaccess",
	Doc: "flags mutation of the dataset's internal column storage " +
		"(dataset.Columns / dataset.Chunk fields) outside internal/dataset",
	Run: runColAccess,
}

const datasetPkgPath = "geostat/internal/dataset"

func runColAccess(pass *analysis.Pass) error {
	if pass.PkgPath == datasetPkgPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				// Plain and compound assignments; := never has a field LHS.
				for _, lhs := range st.Lhs {
					if name, pos, ok := colField(pass, lhs); ok {
						pass.Reportf(pos, "write to dataset column storage %s outside %s; mutate through the Dataset API", name, datasetPkgPath)
					}
				}
			case *ast.IncDecStmt:
				if name, pos, ok := colField(pass, st.X); ok {
					pass.Reportf(pos, "write to dataset column storage %s outside %s; mutate through the Dataset API", name, datasetPkgPath)
				}
			case *ast.UnaryExpr:
				if st.Op == token.AND {
					if name, pos, ok := colField(pass, st.X); ok {
						pass.Reportf(pos, "address of dataset column storage %s escapes the read-only view; copy the value instead", name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// colField unwraps parens, indexing and slicing, and reports whether the
// base expression selects a field of dataset.Columns or dataset.Chunk.
// It returns the qualified field name and the selector position.
func colField(pass *analysis.Pass, e ast.Expr) (string, token.Pos, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			s, ok := pass.TypesInfo.Selections[x]
			if !ok || s.Kind() != types.FieldVal {
				return "", token.NoPos, false
			}
			recv := s.Recv()
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				obj := named.Obj()
				if obj.Pkg() != nil && obj.Pkg().Path() == datasetPkgPath &&
					(obj.Name() == "Columns" || obj.Name() == "Chunk") {
					return obj.Name() + "." + x.Sel.Name, x.Pos(), true
				}
			}
			// A nested field write (chunks[0].BBox.MinX = v) still mutates
			// the chunk storage: keep walking toward the base.
			e = x.X
		default:
			return "", token.NoPos, false
		}
	}
}
