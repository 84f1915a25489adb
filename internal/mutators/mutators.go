// Package mutators contains the 118 semantic-aware mutation operators the
// paper reports (Section 4.1): 68 supervised (M_s) and 50 unsupervised
// (M_u), split by target structure into Variable (16), Expression (50),
// Statement (27), Function (19) and Type (6) mutators. Each mutator is
// implemented against the μAST API (internal/muast) exactly as the
// LLM-synthesized C++ implementations are written against the paper's
// Mutator class: traverse, collect instances, select one at random, check
// validity, rewrite.
//
// Importing this package (often blank-imported) populates the muast
// registry.
package mutators

import (
	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// Counts per category as reported in the paper; verified by tests.
const (
	WantVariable   = 16
	WantExpression = 50
	WantStatement  = 27
	WantFunction   = 19
	WantType       = 6
	WantSupervised = 68
	WantTotal      = 118
)

// reg is shorthand for registration within this package.
func reg(name, desc string, cat muast.Category, set muast.Set, creative bool, fn muast.MutateFunc) {
	muast.Register(muast.Info{
		Name: name, Description: desc, Category: cat, Set: set,
		Creative: creative, Fn: fn,
	})
}

// ---------------------------------------------------------------------
// Shared collection helpers
// ---------------------------------------------------------------------

// inBodies returns every node of type T inside the bodies of the
// unit's function definitions that satisfies pred (all when pred is
// nil), function by function in muast.Find's walk order. It is the
// mutators' collection step; a scan that prunes a subtree jumps over it
// in the node table, and a direct cast.Walk remains only where the
// visitor stops early.
func inBodies[T cast.Node](m *muast.Manager, pred func(T) bool) []T {
	var out []T
	for _, fn := range m.Functions() {
		out = muast.FindAppend(m, out, fn.Body, pred)
	}
	return out
}

// mutableIntExprs returns side-effect-free integer-typed expressions that
// sit in ordinary expression positions (excluding case labels, global
// initializers and array dimensions, which require constant expressions).
func mutableIntExprs(m *muast.Manager) []cast.Expr {
	pm := m.Parents()
	var out []cast.Expr
	for _, fn := range m.Functions() {
		body := m.TU.Subtree(fn.Body)
		for i := 0; i < len(body); i++ {
			n := body[i]
			// Do not descend into contexts requiring constants.
			if _, isCase := n.(*cast.CaseStmt); isCase {
				i += len(m.TU.Subtree(n)) - 1
				continue
			}
			e, ok := n.(cast.Expr)
			if !ok {
				continue
			}
			if !e.Type().IsInteger() || !m.IsSideEffectFree(e) {
				continue
			}
			// Skip lvalues in assignment/&-operand position.
			if parentRequiresLvalue(pm, e) {
				continue
			}
			out = append(out, e)
		}
	}
	return out
}

// parentRequiresLvalue reports whether e is used in a position that needs
// an lvalue (assignment LHS, ++/--, address-of).
func parentRequiresLvalue(pm cast.Parents, e cast.Expr) bool {
	parent := pm.Of(e)
	switch p := parent.(type) {
	case *cast.BinaryOperator:
		return p.Op.IsAssignment() && p.LHS == e
	case *cast.UnaryOperator:
		switch p.Op {
		case cast.UnAddr, cast.UnPreInc, cast.UnPreDec, cast.UnPostInc, cast.UnPostDec:
			return true
		}
	case *cast.ParenExpr:
		return parentRequiresLvalue(pm, p)
	}
	return false
}

// intLiterals returns integer literals outside constant-only contexts.
func intLiterals(m *muast.Manager) []*cast.IntegerLiteral {
	pm := m.Parents()
	var out []*cast.IntegerLiteral
	for _, fn := range m.Functions() {
		body := m.TU.Subtree(fn.Body)
		for i := 0; i < len(body); i++ {
			switch x := body[i].(type) {
			case *cast.CaseStmt:
				i += len(m.TU.Subtree(x)) - 1 // skip the case's subtree
			case *cast.IntegerLiteral:
				if !inConstantContext(pm, x) {
					out = append(out, x)
				}
			}
		}
	}
	return out
}

// inConstantContext reports whether n sits where C requires an
// integer-constant expression (case labels, enum values, array bounds).
func inConstantContext(pm cast.Parents, n cast.Node) bool {
	for cur := pm.Of(n); cur != nil; cur = pm.Of(cur) {
		switch cur.(type) {
		case *cast.CaseStmt, *cast.EnumConstantDecl:
			return true
		case *cast.CompoundStmt, *cast.FunctionDecl:
			return false
		}
	}
	return false
}

// localVarDecls returns local variable declarations with simple scalar
// types, optionally requiring an initializer.
func localVarDecls(m *muast.Manager, needInit bool) []*cast.VarDecl {
	var out []*cast.VarDecl
	for _, vd := range m.LocalVars(nil) {
		if vd.Name == "" {
			continue
		}
		if needInit && vd.Init == nil {
			continue
		}
		out = append(out, vd)
	}
	return out
}

// declStmtFor finds the DeclStmt containing vd.
func declStmtFor(m *muast.Manager, vd *cast.VarDecl) *cast.DeclStmt {
	pm := m.Parents()
	if ds, ok := pm.Of(vd).(*cast.DeclStmt); ok {
		return ds
	}
	return nil
}

// bodyStmts returns statements directly inside compound blocks of all
// functions (not nested expressions), matching pred.
func bodyStmts(m *muast.Manager, pred func(cast.Stmt) bool) []cast.Stmt {
	var out []cast.Stmt
	for _, cs := range inBodies[*cast.CompoundStmt](m, nil) {
		for _, s := range cs.Stmts {
			if pred == nil || pred(s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// fmtStmt renders text for insertion next to an existing statement.
func fmtStmt(m *muast.Manager, anchor cast.Node, text string) string {
	return text + "\n" + m.IndentOf(anchor.Range().Begin)
}

// typeSpellingForCast renders a type usable inside a cast expression.
func typeSpellingForCast(t cast.QualType) string {
	return t.Unqualified().CString()
}

// simpleScalar reports whether t is a basic arithmetic (non-complex,
// non-void) type.
func simpleScalar(t cast.QualType) bool {
	k, ok := t.Basic()
	return ok && k != cast.Void && k != cast.ComplexDouble
}

// sameScalarType matches canonical basic kinds.
func sameScalarType(a, b cast.QualType) bool {
	ka, oka := a.Basic()
	kb, okb := b.Basic()
	return oka && okb && ka == kb
}
