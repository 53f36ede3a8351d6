package main

// serialcmp: RTR serials (rtr.Serial) live on the RFC 1982 ring, where `<`
// has no meaning — a long-lived cache wraps past 2^32 and a raw comparison
// silently inverts. All ordering must go through SerialLess/SerialNewer, and
// raw subtraction (ring "distance") is equally undefined across the
// antipode. Code that genuinely wants wrapping uint32 arithmetic converts
// explicitly, which is greppable and reviewable; anything else is flagged.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// serialTypePkg/serialTypeName anchor the check on the one type that carries
// the invariant.
const (
	serialTypePkg  = "repro/internal/rtr"
	serialTypeName = "Serial"
)

var serialCmpAnalyzer = &Analyzer{
	Name: "serialcmp",
	Doc:  "flags raw </>/<=/>= and subtraction on rtr.Serial; ordering must use SerialLess/SerialNewer (RFC 1982)",
	Run:  runSerialCmp,
}

func isSerialType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == serialTypeName && obj.Pkg() != nil && obj.Pkg().Path() == serialTypePkg
}

func runSerialCmp(m *ModulePass) {
	for _, p := range m.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				var verb string
				switch be.Op {
				case token.LSS, token.GTR, token.LEQ, token.GEQ:
					verb = "ordering comparison"
				case token.SUB:
					verb = "subtraction"
				default:
					return true
				}
				if isSerialType(typeOfIn(p, be.X)) || isSerialType(typeOfIn(p, be.Y)) {
					m.Reportf(be.OpPos,
						"raw %s (%s) on rtr.Serial: serials wrap at 2^32, use SerialLess/SerialNewer (RFC 1982) or convert through uint32 explicitly",
						verb, be.Op)
				}
				return true
			})
		}
	}
}
