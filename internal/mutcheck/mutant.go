package mutcheck

import (
	"fmt"
	"strings"
	"sync"

	"github.com/icsnju/metamut-go/internal/cast"
)

// Mutant-validator check identifiers. Error checks mirror the front end
// (parse + sema) one-to-one; Warning checks are analyses the front end
// does not enforce.
const (
	CheckParseError      = "parse-error"
	CheckSemaError       = "sema-error" // fallback for unclassified sema messages
	CheckDivByZero       = "div-by-zero"
	CheckDuplicateLabel  = "duplicate-label"
	CheckDuplicateCase   = "duplicate-case"
	CheckConstIndexOOB   = "const-index-oob"
	CheckUnreachableCode = "unreachable-code"
	CheckUnusedVariable  = "unused-variable"
)

// rejectArenas recycles Reject's parse arenas. Each call owns one
// arena exclusively between Get and Put, so concurrent fuzzing streams
// share the pool safely and nothing from the parse outlives the call.
var rejectArenas = sync.Pool{New: func() any { return cast.NewArena() }}

// Reject reports whether the compilersim front end would reject src,
// and under which check. It runs exactly cast.Parse + cast.Check — by
// construction it never rejects a program the simulated compiler
// accepts — over a pooled arena, and names the check with Classify.
// The fuzzers do not call it: they run compilersim.Context.Front and
// classify its error, so the compile reuses that one parse. Reject
// serves the cold paths and stand-alone replays of the filter.
func Reject(src string) (check string, reject bool) {
	a := rejectArenas.Get().(*cast.Arena)
	defer func() {
		a.Reset()
		rejectArenas.Put(a)
	}()
	tu, err := cast.ParseWithArena(src, a)
	if err == nil {
		err = cast.Check(tu)
	}
	if err == nil {
		return "", false
	}
	return Classify(err), true
}

// Classify names the static check behind a front-end error — the error
// cast.Check or compilersim.Context.Front returns. A sema failure maps
// its first message through classifySema; anything else is a lex or
// parse error.
func Classify(err error) string {
	if errs, ok := err.(cast.SemaErrors); ok {
		if len(errs) == 0 {
			return CheckSemaError
		}
		return classifySema(errs[0].Msg)
	}
	return CheckParseError
}

// Analyze statically validates one candidate mutant: Error diagnostics
// reproduce the front end's parse/sema rejections (goal #6 evidence);
// Warning diagnostics come from the advisory passes and never imply
// rejection.
func Analyze(src string) []Diagnostic {
	tu, err := cast.Parse(src)
	if err != nil {
		return []Diagnostic{{
			Check: CheckParseError, Severity: Error, Goal: 6, Step: -1, Offset: -1,
			Message: err.Error(),
			Fix:     "the rewrite produced syntactically invalid text",
		}}
	}
	if err := cast.Check(tu); err != nil {
		var out []Diagnostic
		if errs, ok := err.(cast.SemaErrors); ok {
			for _, se := range errs {
				out = append(out, Diagnostic{
					Check: classifySema(se.Msg), Severity: Error, Goal: 6,
					Step: -1, Offset: se.Offset, Message: se.Msg,
				})
			}
			return out
		}
		return []Diagnostic{{Check: CheckSemaError, Severity: Error, Goal: 6,
			Step: -1, Offset: -1, Message: err.Error()}}
	}
	return AnalyzeTU(tu)
}

// AnalyzeTU runs the advisory passes over an already parsed-and-checked
// translation unit (the passes read sema annotations: resolved
// references and expression types).
func AnalyzeTU(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	out = append(out, checkDivByZero(tu)...)
	out = append(out, checkDuplicateLabels(tu)...)
	out = append(out, checkDuplicateCases(tu)...)
	out = append(out, checkConstIndexOOB(tu)...)
	out = append(out, checkUnreachable(tu)...)
	out = append(out, checkUnusedLocals(tu)...)
	return out
}

// classifySema maps a sema message to a stable check identifier so
// static_rejects_total{check} has bounded, meaningful label values.
func classifySema(msg string) string {
	switch {
	case strings.Contains(msg, "undeclared identifier"):
		return "undeclared-identifier"
	case strings.Contains(msg, "undeclared label"):
		return "undeclared-label"
	case strings.Contains(msg, "assigning to"), strings.Contains(msg, "initializing"),
		strings.Contains(msg, "incompatible type"), strings.Contains(msg, "invalid operands"),
		strings.Contains(msg, "invalid argument type"):
		return "type-mismatch"
	case strings.Contains(msg, "not assignable"), strings.Contains(msg, "const-qualified"),
		strings.Contains(msg, "address of an rvalue"), strings.Contains(msg, "cannot increment"):
		return "bad-lvalue"
	case strings.Contains(msg, "arguments"), strings.Contains(msg, "not a function"),
		strings.Contains(msg, "void expression"):
		return "call-error"
	case strings.Contains(msg, "member"):
		return "member-error"
	case strings.Contains(msg, "subscript"):
		return "subscript-error"
	case strings.Contains(msg, "'break'"), strings.Contains(msg, "'continue'"),
		strings.Contains(msg, "'case'"), strings.Contains(msg, "'default'"):
		return "misplaced-statement"
	case strings.Contains(msg, "redefinition"):
		return "redefinition"
	default:
		return CheckSemaError
	}
}

// constInt evaluates an integer constant expression, following the
// same shapes sema resolves for enum values: literals, parens, casts,
// unary and binary arithmetic, and enum-constant references.
func constInt(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntegerLiteral:
		return x.Value, true
	case *cast.CharLiteral:
		return int64(x.Value), true
	case *cast.ParenExpr:
		return constInt(x.X)
	case *cast.CastExpr:
		return constInt(x.X)
	case *cast.DeclRefExpr:
		if ec, ok := x.Ref.(*cast.EnumConstantDecl); ok {
			return ec.Num, true
		}
	case *cast.UnaryOperator:
		v, ok := constInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case cast.UnPlus:
			return v, true
		case cast.UnMinus:
			return -v, true
		case cast.UnNot:
			return ^v, true
		case cast.UnLNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *cast.BinaryOperator:
		l, lok := constInt(x.LHS)
		r, rok := constInt(x.RHS)
		if !lok || !rok {
			return 0, false
		}
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch x.Op {
		case cast.BinAdd:
			return l + r, true
		case cast.BinSub:
			return l - r, true
		case cast.BinMul:
			return l * r, true
		case cast.BinDiv:
			if r != 0 {
				return l / r, true
			}
		case cast.BinRem:
			if r != 0 {
				return l % r, true
			}
		case cast.BinAnd:
			return l & r, true
		case cast.BinOr:
			return l | r, true
		case cast.BinXor:
			return l ^ r, true
		case cast.BinShl:
			if r >= 0 && r < 64 {
				return l << uint(r), true
			}
		case cast.BinShr:
			if r >= 0 && r < 64 {
				return l >> uint(r), true
			}
		case cast.BinLT:
			return b2i(l < r), true
		case cast.BinGT:
			return b2i(l > r), true
		case cast.BinLE:
			return b2i(l <= r), true
		case cast.BinGE:
			return b2i(l >= r), true
		case cast.BinEQ:
			return b2i(l == r), true
		case cast.BinNE:
			return b2i(l != r), true
		}
	}
	return 0, false
}

func warn(check string, n cast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Check: check, Severity: Warning, Goal: 0, Step: -1,
		Offset: n.Range().Begin, Message: fmt.Sprintf(format, args...),
	}
}

func checkDivByZero(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	for _, n := range tu.Subtree(tu) {
		b, ok := n.(*cast.BinaryOperator)
		if !ok {
			continue
		}
		switch b.Op {
		case cast.BinDiv, cast.BinRem, cast.BinDivAssign, cast.BinRemAssign:
			if v, cok := constInt(b.RHS); cok && v == 0 {
				out = append(out, warn(CheckDivByZero, b,
					"right operand of %q is constant zero", b.Op.String()))
			}
		}
	}
	return out
}

func checkDuplicateLabels(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	for _, d := range tu.Decls {
		fd, ok := d.(*cast.FunctionDecl)
		if !ok || fd.Body == nil {
			continue
		}
		seen := map[string]bool{}
		for _, n := range tu.Subtree(fd.Body) {
			if l, lok := n.(*cast.LabelStmt); lok {
				if seen[l.Name] {
					out = append(out, warn(CheckDuplicateLabel, l,
						"duplicate label %q in function %q", l.Name, fd.Name))
				}
				seen[l.Name] = true
			}
		}
	}
	return out
}

func checkDuplicateCases(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	for _, n := range tu.Subtree(tu) {
		sw, ok := n.(*cast.SwitchStmt)
		if !ok {
			continue
		}
		seen := map[int64]bool{}
		body := tu.Subtree(sw.Body)
		for i := 0; i < len(body); i++ {
			switch x := body[i].(type) {
			case *cast.SwitchStmt:
				i += len(tu.Subtree(x)) - 1 // a nested switch owns its own labels
			case *cast.CaseStmt:
				if v, vok := constInt(x.Value); vok {
					if seen[v] {
						out = append(out, warn(CheckDuplicateCase, x,
							"duplicate case value %d", v))
					}
					seen[v] = true
				}
			}
		}
	}
	return out
}

func checkConstIndexOOB(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	for _, n := range tu.Subtree(tu) {
		sub, ok := n.(*cast.ArraySubscriptExpr)
		if !ok {
			continue
		}
		bt := sub.Base.Type()
		if bt.T == nil {
			continue
		}
		arr, aok := bt.Canonical().T.(*cast.ArrayType)
		if !aok || arr.Size <= 0 {
			continue
		}
		if idx, iok := constInt(sub.Index); iok && (idx < 0 || idx >= arr.Size) {
			out = append(out, warn(CheckConstIndexOOB, sub,
				"constant index %d is outside the array bound %d", idx, arr.Size))
		}
	}
	return out
}

func checkUnreachable(tu *cast.TranslationUnit) []Diagnostic {
	var out []Diagnostic
	for _, n := range tu.Subtree(tu) {
		cs, ok := n.(*cast.CompoundStmt)
		if !ok {
			continue
		}
		for i, st := range cs.Stmts {
			if !isJump(st) || i+1 >= len(cs.Stmts) {
				continue
			}
			next := cs.Stmts[i+1]
			if isReentry(next) {
				continue
			}
			out = append(out, warn(CheckUnreachableCode, next,
				"code after the %s cannot execute", st.Kind()))
			break // one report per block is enough
		}
	}
	return out
}

func isJump(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.ReturnStmt, *cast.BreakStmt, *cast.ContinueStmt, *cast.GotoStmt:
		return true
	}
	return false
}

// isReentry reports whether control can re-enter at the statement even
// though its predecessor jumped away (labels and switch arms).
func isReentry(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.LabelStmt, *cast.CaseStmt, *cast.DefaultStmt:
		return true
	}
	return false
}

func checkUnusedLocals(tu *cast.TranslationUnit) []Diagnostic {
	used := map[cast.Decl]bool{}
	for _, n := range tu.Subtree(tu) {
		if dr, ok := n.(*cast.DeclRefExpr); ok && dr.Ref != nil {
			used[dr.Ref] = true
		}
	}
	var out []Diagnostic
	for _, d := range tu.Decls {
		fd, ok := d.(*cast.FunctionDecl)
		if !ok || fd.Body == nil {
			continue
		}
		for _, n := range tu.Subtree(fd.Body) {
			ds, ok := n.(*cast.DeclStmt)
			if !ok {
				continue
			}
			for _, ld := range ds.Decls {
				if v, vok := ld.(*cast.VarDecl); vok && !used[cast.Decl(v)] {
					out = append(out, warn(CheckUnusedVariable, v,
						"variable %q is declared but never used", v.Name))
				}
			}
		}
	}
	return out
}
