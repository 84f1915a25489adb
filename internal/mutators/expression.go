package mutators

import (
	"fmt"
	"strings"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// The 50 Expression mutators.
func init() {
	reg("ModifyIntegerLiteral",
		"This mutator selects an IntegerLiteral and modifies its value by a small random delta.",
		muast.CatExpression, muast.Supervised, false, modifyIntegerLiteral)

	reg("ReplaceLiteralWithRandomValue",
		"This mutator replaces a randomly selected literal with a new random value of the same kind.",
		muast.CatExpression, muast.Unsupervised, false, replaceLiteralWithRandomValue)

	reg("NegateIntegerLiteral",
		"This mutator negates the value of a randomly selected integer literal.",
		muast.CatExpression, muast.Unsupervised, false, negateIntegerLiteral)

	reg("ReplaceIntegerLiteralWithBoundary",
		"This mutator replaces an integer literal with a type boundary value such as INT_MAX, INT_MIN, 0 or -1.",
		muast.CatExpression, muast.Supervised, false, replaceIntegerLiteralWithBoundary)

	reg("ModifyFloatLiteral",
		"This mutator perturbs a floating-point literal by scaling or offsetting its value.",
		muast.CatExpression, muast.Unsupervised, false, modifyFloatLiteral)

	reg("ChangeBinaryOperator",
		"This mutator replaces a binary operator with another operator that is applicable to the same operand types, verified via semantic checks.",
		muast.CatExpression, muast.Supervised, false, changeBinaryOperator)

	reg("SwapBinaryOperands",
		"This mutator swaps the left and right operands of a binary operator when both operands are side-effect free.",
		muast.CatExpression, muast.Supervised, false, swapBinaryOperands)

	reg("InverseUnaryOperator",
		"This mutator selects a unary operation (like unary minus or logical not) and inverses it. For instance, -a would become -(-a) and !a would become !!a.",
		muast.CatExpression, muast.Supervised, false, inverseUnaryOperator)

	reg("ChangeUnaryOperator",
		"This mutator replaces a prefix unary operator with a different applicable unary operator.",
		muast.CatExpression, muast.Unsupervised, false, changeUnaryOperator)

	reg("DuplicateConditionWithAnd",
		"This mutator duplicates a branch condition, combining the two copies with a logical AND.",
		muast.CatExpression, muast.Unsupervised, false, duplicateConditionWithAnd)

	reg("ExpandCompoundAssignment",
		"This mutator expands a compound assignment such as a += b into the equivalent a = a + b form.",
		muast.CatExpression, muast.Supervised, false, expandCompoundAssignment)

	reg("ContractToCompoundAssignment",
		"This mutator rewrites a = a + b into the compound assignment a += b.",
		muast.CatExpression, muast.Unsupervised, false, contractToCompoundAssignment)

	reg("AddIdentityOperation",
		"This mutator wraps an integer expression with an identity arithmetic operation such as + 0 or * 1.",
		muast.CatExpression, muast.Supervised, false, addIdentityOperation)

	reg("ApplyDeMorgan",
		"This mutator applies De Morgan's law to a logical expression, rewriting a && b into !(!a || !b) and a || b into !(!a && !b).",
		muast.CatExpression, muast.Supervised, false, applyDeMorgan)

	reg("NegateCondition",
		"This mutator negates the condition of an if statement or loop by wrapping it in a logical not.",
		muast.CatExpression, muast.Supervised, false, negateCondition)

	reg("CopyExpr",
		"This mutator replaces an expression with a copy of another type-compatible expression taken from elsewhere in the program.",
		muast.CatExpression, muast.Supervised, false, copyExpr)

	reg("ReplaceCallWithConstant",
		"This mutator replaces a function call expression with a default constant of the call's result type.",
		muast.CatExpression, muast.Unsupervised, false, replaceCallWithConstant)

	reg("WrapExprInConditional",
		"This mutator wraps an expression e into the conditional expression (1 ? e : e).",
		muast.CatExpression, muast.Supervised, false, wrapExprInConditional)

	reg("WrapExprInComma",
		"This mutator wraps an expression e into a comma expression (0, e), preserving its value.",
		muast.CatExpression, muast.Unsupervised, false, wrapExprInComma)

	reg("CastExprToSameType",
		"This mutator inserts a redundant cast of an expression to its own type.",
		muast.CatExpression, muast.Unsupervised, false, castExprToSameType)

	reg("CastExprToWiderType",
		"This mutator casts an integer expression to a wider integer type such as long long.",
		muast.CatExpression, muast.Supervised, false, castExprToWiderType)

	reg("StrengthReduceMul",
		"This mutator rewrites a multiplication by a power of two into an equivalent left shift.",
		muast.CatExpression, muast.Supervised, true, strengthReduceMul)

	reg("StrengthExpandShift",
		"This mutator rewrites a left shift by a constant into an equivalent multiplication.",
		muast.CatExpression, muast.Unsupervised, true, strengthExpandShift)

	reg("ReassociateArithmetic",
		"This mutator changes the association of a chain of additions or multiplications by inserting parentheses.",
		muast.CatExpression, muast.Supervised, false, reassociateArithmetic)

	reg("DistributeMultiplication",
		"This mutator distributes a multiplication over an addition, rewriting a * (b + c) into (a * b + a * c).",
		muast.CatExpression, muast.Unsupervised, false, distributeMultiplication)

	reg("ReplaceSubscriptWithDeref",
		"This mutator rewrites an array subscript a[i] into the equivalent pointer dereference *(a + (i)).",
		muast.CatExpression, muast.Supervised, false, replaceSubscriptWithDeref)

	reg("ReplaceDerefWithSubscript",
		"This mutator rewrites a pointer dereference *p into the equivalent subscript p[0].",
		muast.CatExpression, muast.Unsupervised, false, replaceDerefWithSubscript)

	reg("SwapSubscriptBase",
		"This mutator swaps the base and index of an array subscript, rewriting a[i] into i[a], which is valid C.",
		muast.CatExpression, muast.Unsupervised, true, swapSubscriptBase)

	reg("IncrementToAddAssign",
		"This mutator rewrites an increment or decrement statement into the equivalent compound assignment.",
		muast.CatExpression, muast.Unsupervised, false, incrementToAddAssign)

	reg("PreToPostIncrement",
		"This mutator converts a pre-increment or pre-decrement in statement position into its postfix form.",
		muast.CatExpression, muast.Unsupervised, false, preToPostIncrement)

	reg("FlattenConditionalExpr",
		"This mutator flattens a conditional expression by replacing one of its arms with the other.",
		muast.CatExpression, muast.Supervised, false, flattenConditionalExpr)

	reg("ReplaceArgWithDefault",
		"This mutator replaces one argument of a function call with a default value of the parameter's type.",
		muast.CatExpression, muast.Unsupervised, false, replaceArgWithDefault)

	reg("SwapCallArguments",
		"This mutator swaps two type-compatible arguments of a function call.",
		muast.CatExpression, muast.Supervised, false, swapCallArguments)

	reg("ExpandLogicalToBitwise",
		"This mutator rewrites a logical AND/OR of integer comparisons into a bitwise AND/OR of their normalized values.",
		muast.CatExpression, muast.Supervised, false, expandLogicalToBitwise)

	reg("BitwiseToLogical",
		"This mutator replaces a bitwise AND/OR of integer operands with the corresponding logical operator.",
		muast.CatExpression, muast.Unsupervised, false, bitwiseToLogical)

	reg("AddBitwiseNotTwice",
		"This mutator wraps an integer expression with a double bitwise negation ~~e.",
		muast.CatExpression, muast.Unsupervised, false, addBitwiseNotTwice)

	reg("AddNegationTwice",
		"This mutator wraps an arithmetic expression with a double arithmetic negation -(-e).",
		muast.CatExpression, muast.Supervised, false, addNegationTwice)

	reg("ComparisonToSubtraction",
		"This mutator rewrites an integer comparison a < b into the subtraction form (a - b) < 0.",
		muast.CatExpression, muast.Unsupervised, true, comparisonToSubtraction)

	reg("ExpandEqualityToRelational",
		"This mutator rewrites an equality a == b into the conjunction a <= b && a >= b.",
		muast.CatExpression, muast.Unsupervised, false, expandEqualityToRelational)

	reg("LiteralToCharLiteral",
		"This mutator replaces a small integer literal with an equivalent character literal.",
		muast.CatExpression, muast.Unsupervised, false, literalToCharLiteral)

	reg("IntLiteralToHex",
		"This mutator rewrites a decimal integer literal into its hexadecimal spelling.",
		muast.CatExpression, muast.Unsupervised, false, intLiteralToHex)

	reg("AddSizeofTerm",
		"This mutator adds a vanishing sizeof-based term, rewriting e into e + 0 * (int)sizeof(int).",
		muast.CatExpression, muast.Unsupervised, true, addSizeofTerm)

	reg("ReplaceWithSameScopeVariable",
		"This mutator replaces a variable reference with another type-compatible variable visible in the same function.",
		muast.CatExpression, muast.Unsupervised, false, replaceWithSameScopeVariable)

	reg("StringLiteralShrink",
		"This mutator truncates a string literal, shortening the data the program carries.",
		muast.CatExpression, muast.Unsupervised, false, stringLiteralShrink)

	reg("ConstantFoldExpr",
		"This mutator folds a constant integer subexpression into its computed value.",
		muast.CatExpression, muast.Unsupervised, true, constantFoldExpr)

	reg("UnfoldConstant",
		"This mutator unfolds an integer literal N into an equivalent expression (N - k + k) for a random k.",
		muast.CatExpression, muast.Unsupervised, true, unfoldConstant)

	reg("ConditionAlwaysTrue",
		"This mutator weakens a branch condition by appending a logical OR with 1, making the branch always taken.",
		muast.CatExpression, muast.Unsupervised, false, conditionAlwaysTrue)

	reg("ConditionAlwaysFalse",
		"This mutator strengthens a branch condition by appending a logical AND with 0, making the branch never taken.",
		muast.CatExpression, muast.Supervised, false, conditionAlwaysFalse)

	reg("ModifyArrayIndex",
		"This mutator offsets the index expression of an array subscript by a small constant.",
		muast.CatExpression, muast.Supervised, false, modifyArrayIndex)

	reg("ReplaceMemberWithOtherField",
		"This mutator replaces a struct member access with an access to a different field of the same type.",
		muast.CatExpression, muast.Supervised, false, replaceMemberWithOtherField)
}

func modifyIntegerLiteral(m *muast.Manager) bool {
	lits := intLiterals(m)
	if len(lits) == 0 {
		return false
	}
	il := muast.RandElement(m, lits)
	delta := int64(m.Rand().Intn(7) + 1)
	if m.RandBool(0.5) {
		delta = -delta
	}
	return m.ReplaceNode(il, fmt.Sprintf("%d", il.Value+delta))
}

func replaceLiteralWithRandomValue(m *muast.Manager) bool {
	lits := intLiterals(m)
	if len(lits) == 0 {
		return false
	}
	il := muast.RandElement(m, lits)
	return m.ReplaceNode(il, fmt.Sprintf("%d", m.Rand().Int63n(1<<16)-(1<<15)))
}

func negateIntegerLiteral(m *muast.Manager) bool {
	var nonZero []*cast.IntegerLiteral
	for _, il := range intLiterals(m) {
		if il.Value != 0 {
			nonZero = append(nonZero, il)
		}
	}
	if len(nonZero) == 0 {
		return false
	}
	il := muast.RandElement(m, nonZero)
	return m.ReplaceNode(il, fmt.Sprintf("(-%s)", il.Text))
}

func replaceIntegerLiteralWithBoundary(m *muast.Manager) bool {
	lits := intLiterals(m)
	if len(lits) == 0 {
		return false
	}
	il := muast.RandElement(m, lits)
	boundaries := []string{"2147483647", "(-2147483647 - 1)", "0", "(-1)",
		"65535", "255", "4294967295U"}
	repl := muast.RandElement(m, boundaries)
	if repl == il.Text {
		repl = "2147483647" // avoid a no-op replacement
	}
	return m.ReplaceNode(il, repl)
}

func modifyFloatLiteral(m *muast.Manager) bool {
	lits := inBodies[*cast.FloatingLiteral](m, nil)
	if len(lits) == 0 {
		return false
	}
	fl := muast.RandElement(m, lits)
	v := fl.Value*(1.0+m.Rand().Float64()) + 0.5
	return m.ReplaceNode(fl, fmt.Sprintf("%g", v))
}

// compatibleBinOps lists replacement candidates by operator family.
func compatibleBinOps(op cast.BinOp) []cast.BinOp {
	switch {
	case op.IsArithmetic():
		return []cast.BinOp{cast.BinAdd, cast.BinSub, cast.BinMul, cast.BinDiv, cast.BinRem}
	case op.IsComparison():
		return []cast.BinOp{cast.BinLT, cast.BinGT, cast.BinLE, cast.BinGE, cast.BinEQ, cast.BinNE}
	case op.IsBitwise():
		return []cast.BinOp{cast.BinAnd, cast.BinOr, cast.BinXor, cast.BinShl, cast.BinShr}
	case op.IsLogical():
		return []cast.BinOp{cast.BinLAnd, cast.BinLOr}
	}
	return nil
}

func changeBinaryOperator(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return !bo.Op.IsAssignment() && len(compatibleBinOps(bo.Op)) > 1
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	cands := compatibleBinOps(bo.Op)
	// Step 4: check mutation validity with the semantic checker.
	var valid []cast.BinOp
	for _, op := range cands {
		if op != bo.Op && m.CheckBinop(op, bo.LHS, bo.RHS) {
			valid = append(valid, op)
		}
	}
	if len(valid) == 0 {
		return false
	}
	op := muast.RandElement(m, valid)
	return m.ReplaceRange(bo.OpRange, op.String())
}

func swapBinaryOperands(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return !bo.Op.IsAssignment() &&
			m.IsSideEffectFree(bo.LHS) && m.IsSideEffectFree(bo.RHS) &&
			cast.CheckBinopTypes(bo.Op, bo.RHS.Type(), bo.LHS.Type())
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	lt, rt := m.GetSourceText(bo.LHS), m.GetSourceText(bo.RHS)
	return m.ReplaceNode(bo.LHS, "("+rt+")") && m.ReplaceNode(bo.RHS, "("+lt+")")
}

func inverseUnaryOperator(m *muast.Manager) bool {
	cands := inBodies(m, func(uo *cast.UnaryOperator) bool {
		return uo.Op == cast.UnMinus || uo.Op == cast.UnLNot
	})
	if len(cands) == 0 {
		return false
	}
	uo := muast.RandElement(m, cands)
	txt := m.GetSourceText(uo)
	switch uo.Op {
	case cast.UnMinus:
		return m.ReplaceNode(uo, "-(-("+txt+"))")
	default: // UnLNot
		return m.ReplaceNode(uo, "!!("+txt+")")
	}
}

func changeUnaryOperator(m *muast.Manager) bool {
	cands := inBodies(m, func(uo *cast.UnaryOperator) bool {
		switch uo.Op {
		case cast.UnMinus, cast.UnNot, cast.UnLNot:
			return uo.X.Type().IsInteger()
		}
		return false
	})
	if len(cands) == 0 {
		return false
	}
	uo := muast.RandElement(m, cands)
	repl := map[cast.UnOp][]string{
		cast.UnMinus: {"~", "!"},
		cast.UnNot:   {"-", "!"},
		cast.UnLNot:  {"-", "~"},
	}[uo.Op]
	inner := m.GetSourceText(uo.X)
	return m.ReplaceNode(uo, muast.RandElement(m, repl)+"("+inner+")")
}

// conditions returns the scalar condition expressions of ifs and loops.
func conditions(m *muast.Manager) []cast.Expr {
	var out []cast.Expr
	for _, s := range inBodies(m, func(s cast.Stmt) bool { return condOf(s) != nil }) {
		out = append(out, condOf(s))
	}
	return out
}

// condOf returns the condition of an if or loop statement; nil for any
// other statement and for a for loop without one.
func condOf(s cast.Stmt) cast.Expr {
	switch s := s.(type) {
	case *cast.IfStmt:
		return s.Cond
	case *cast.WhileStmt:
		return s.Cond
	case *cast.DoStmt:
		return s.Cond
	case *cast.ForStmt:
		return s.Cond
	}
	return nil
}

func duplicateConditionWithAnd(m *muast.Manager) bool {
	var cands []cast.Expr
	for _, c := range conditions(m) {
		if m.IsSideEffectFree(c) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	txt := m.GetSourceText(c)
	return m.ReplaceNode(c, fmt.Sprintf("(%s) && (%s)", txt, txt))
}

func expandCompoundAssignment(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return bo.Op.IsAssignment() && bo.Op != cast.BinAssign &&
			m.IsSideEffectFree(bo.LHS)
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	lhs := m.GetSourceText(bo.LHS)
	rhs := m.GetSourceText(bo.RHS)
	base := strings.TrimSuffix(bo.Op.String(), "=")
	return m.ReplaceNode(bo, fmt.Sprintf("%s = %s %s (%s)", lhs, lhs, base, rhs))
}

func contractToCompoundAssignment(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op != cast.BinAssign {
			return false
		}
		rhs, ok := bo.RHS.(*cast.BinaryOperator)
		if !ok || !(rhs.Op.IsArithmetic() || rhs.Op.IsBitwise()) {
			return false
		}
		lhsRef, ok := bo.LHS.(*cast.DeclRefExpr)
		if !ok {
			return false
		}
		innerRef, ok := rhs.LHS.(*cast.DeclRefExpr)
		return ok && innerRef.Ref == lhsRef.Ref
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	rhs := bo.RHS.(*cast.BinaryOperator)
	return m.ReplaceNode(bo, fmt.Sprintf("%s %s= %s",
		m.GetSourceText(bo.LHS), rhs.Op, m.GetSourceText(rhs.RHS)))
}

func addIdentityOperation(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	txt := m.GetSourceText(e)
	forms := []string{"((%s) + 0)", "((%s) * 1)", "((%s) - 0)", "((%s) | 0)",
		"((%s) ^ 0)", "((%s) >> 0)"}
	return m.ReplaceNode(e, fmt.Sprintf(muast.RandElement(m, forms), txt))
}

func applyDeMorgan(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return bo.Op.IsLogical()
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	l, r := m.GetSourceText(bo.LHS), m.GetSourceText(bo.RHS)
	if bo.Op == cast.BinLAnd {
		return m.ReplaceNode(bo, fmt.Sprintf("!(!(%s) || !(%s))", l, r))
	}
	return m.ReplaceNode(bo, fmt.Sprintf("!(!(%s) && !(%s))", l, r))
}

func negateCondition(m *muast.Manager) bool {
	conds := conditions(m)
	if len(conds) == 0 {
		return false
	}
	c := muast.RandElement(m, conds)
	return m.ReplaceNode(c, "!("+m.GetSourceText(c)+")")
}

func copyExpr(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) < 2 {
		return false
	}
	dst := muast.RandElement(m, exprs)
	var srcs []cast.Expr
	pm := m.Parents()
	for _, e := range exprs {
		if e == dst {
			continue
		}
		// Source and destination must live in the same function so that
		// the copied text's references stay in scope.
		fn := pm.EnclosingFunction(e)
		if fn == nil || fn != pm.EnclosingFunction(dst) {
			continue
		}
		if !m.CheckAssignment(dst.Type(), e.Type()) {
			continue
		}
		// Every local the source references must be declared at the
		// function body's top level, before the destination — otherwise
		// the copy could move a use out of its scope.
		if !localsVisibleAt(m, fn, e, dst.Range().Begin) {
			continue
		}
		// Do not copy an enclosing expression into its own child.
		if e.Range().Contains(dst.Range()) || dst.Range().Contains(e.Range()) {
			continue
		}
		srcs = append(srcs, e)
	}
	if len(srcs) == 0 {
		return false
	}
	src := muast.RandElement(m, srcs)
	return m.ReplaceNode(dst, "("+m.GetSourceText(src)+")")
}

func replaceCallWithConstant(m *muast.Manager) bool {
	pm := m.Parents()
	cands := inBodies(m, func(ce *cast.CallExpr) bool {
		t := ce.Type()
		if !t.IsNil() && !t.IsVoid() && simpleScalar(t) {
			return true
		}
		// A void call in statement position can become a no-op.
		_, isStmt := pm.Of(ce).(*cast.ExprStmt)
		return t.IsVoid() && isStmt
	})
	if len(cands) == 0 {
		return false
	}
	ce := muast.RandElement(m, cands)
	if ce.Type().IsVoid() {
		return m.ReplaceNode(ce, "(void)0")
	}
	return m.ReplaceNode(ce, m.DefaultValueExpr(ce.Type()))
}

func wrapExprInConditional(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	txt := m.GetSourceText(e)
	return m.ReplaceNode(e, fmt.Sprintf("(1 ? (%s) : (%s))", txt, txt))
}

func wrapExprInComma(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	return m.ReplaceNode(e, fmt.Sprintf("((0, (%s)))", m.GetSourceText(e)))
}

func castExprToSameType(m *muast.Manager) bool {
	var cands []cast.Expr
	for _, e := range mutableIntExprs(m) {
		if simpleScalar(e.Type()) {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return false
	}
	e := muast.RandElement(m, cands)
	return m.ReplaceNode(e, fmt.Sprintf("((%s)(%s))",
		typeSpellingForCast(e.Type()), m.GetSourceText(e)))
}

func castExprToWiderType(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	wider := []string{"long", "long long", "unsigned long long"}
	return m.ReplaceNode(e, fmt.Sprintf("((%s)(%s))",
		muast.RandElement(m, wider), m.GetSourceText(e)))
}

func strengthReduceMul(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op != cast.BinMul || !bo.Type().IsInteger() {
			return false
		}
		il, ok := bo.RHS.(*cast.IntegerLiteral)
		return ok && il.Value > 0 && il.Value&(il.Value-1) == 0
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	il := bo.RHS.(*cast.IntegerLiteral)
	shift := 0
	for v := il.Value; v > 1; v >>= 1 {
		shift++
	}
	return m.ReplaceNode(bo, fmt.Sprintf("((%s) << %d)",
		m.GetSourceText(bo.LHS), shift))
}

func strengthExpandShift(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op != cast.BinShl {
			return false
		}
		il, ok := bo.RHS.(*cast.IntegerLiteral)
		return ok && il.Value >= 0 && il.Value < 31
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	il := bo.RHS.(*cast.IntegerLiteral)
	return m.ReplaceNode(bo, fmt.Sprintf("((%s) * %d)",
		m.GetSourceText(bo.LHS), int64(1)<<uint(il.Value)))
}

func reassociateArithmetic(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op != cast.BinAdd && bo.Op != cast.BinMul {
			return false
		}
		inner, ok := bo.LHS.(*cast.BinaryOperator)
		return ok && inner.Op == bo.Op && m.IsSideEffectFree(bo)
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	inner := bo.LHS.(*cast.BinaryOperator)
	a := m.GetSourceText(inner.LHS)
	b := m.GetSourceText(inner.RHS)
	c := m.GetSourceText(bo.RHS)
	op := bo.Op.String()
	return m.ReplaceNode(bo, fmt.Sprintf("(%s %s (%s %s %s))", a, op, b, op, c))
}

func distributeMultiplication(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op != cast.BinMul || !m.IsSideEffectFree(bo) {
			return false
		}
		rhs := stripParens(bo.RHS)
		inner, ok := rhs.(*cast.BinaryOperator)
		return ok && (inner.Op == cast.BinAdd || inner.Op == cast.BinSub)
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	inner := stripParens(bo.RHS).(*cast.BinaryOperator)
	a := m.GetSourceText(bo.LHS)
	b := m.GetSourceText(inner.LHS)
	c := m.GetSourceText(inner.RHS)
	return m.ReplaceNode(bo, fmt.Sprintf("((%s) * (%s) %s (%s) * (%s))",
		a, b, inner.Op, a, c))
}

// localsVisibleAt reports whether every local variable referenced by e is
// declared directly in fn's top-level block before byte offset at (such
// locals are in scope for the rest of the function body).
func localsVisibleAt(m *muast.Manager, fn *cast.FunctionDecl, e cast.Expr, at int) bool {
	topLevel := map[cast.Decl]bool{}
	for _, s := range fn.Body.Stmts {
		if ds, ok := s.(*cast.DeclStmt); ok {
			for _, d := range ds.Decls {
				topLevel[d] = true
			}
		}
	}
	ok := true
	cast.Walk(e, func(n cast.Node) bool {
		dr, isRef := n.(*cast.DeclRefExpr)
		if !isRef {
			return ok
		}
		if vd, isVar := dr.Ref.(*cast.VarDecl); isVar && !vd.IsGlobal {
			if !topLevel[vd] || vd.Range().End > at {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// stripParens unwraps nested ParenExpr nodes.
func stripParens(e cast.Expr) cast.Expr {
	for {
		pe, ok := e.(*cast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// hasIntIndex reports whether a subscript's index has integer type.
func hasIntIndex(ase *cast.ArraySubscriptExpr) bool { return ase.Index.Type().IsInteger() }

func replaceSubscriptWithDeref(m *muast.Manager) bool {
	subs := inBodies[*cast.ArraySubscriptExpr](m, nil)
	if len(subs) == 0 {
		return false
	}
	ase := muast.RandElement(m, subs)
	return m.ReplaceNode(ase, fmt.Sprintf("(*((%s) + (%s)))",
		m.GetSourceText(ase.Base), m.GetSourceText(ase.Index)))
}

func replaceDerefWithSubscript(m *muast.Manager) bool {
	cands := inBodies(m, func(uo *cast.UnaryOperator) bool { return uo.Op == cast.UnDeref })
	if len(cands) == 0 {
		return false
	}
	uo := muast.RandElement(m, cands)
	return m.ReplaceNode(uo, fmt.Sprintf("((%s)[0])", m.GetSourceText(uo.X)))
}

func swapSubscriptBase(m *muast.Manager) bool {
	// i[a] requires i integer and a pointer/array; both already hold for
	// a well-typed a[i].
	cands := inBodies(m, hasIntIndex)
	if len(cands) == 0 {
		return false
	}
	ase := muast.RandElement(m, cands)
	return m.ReplaceNode(ase, fmt.Sprintf("(%s)[%s]",
		m.GetSourceText(ase.Index), m.GetSourceText(ase.Base)))
}

// incDecStmts returns ++/-- expressions in statement position.
func incDecStmts(m *muast.Manager) []*cast.UnaryOperator {
	pm := m.Parents()
	return inBodies(m, func(uo *cast.UnaryOperator) bool {
		switch uo.Op {
		case cast.UnPreInc, cast.UnPreDec, cast.UnPostInc, cast.UnPostDec:
			_, isStmt := pm.Of(uo).(*cast.ExprStmt)
			return isStmt
		}
		return false
	})
}

func incrementToAddAssign(m *muast.Manager) bool {
	cands := incDecStmts(m)
	if len(cands) == 0 {
		return false
	}
	uo := muast.RandElement(m, cands)
	op := "+="
	if uo.Op == cast.UnPreDec || uo.Op == cast.UnPostDec {
		op = "-="
	}
	return m.ReplaceNode(uo, fmt.Sprintf("%s %s 1", m.GetSourceText(uo.X), op))
}

func preToPostIncrement(m *muast.Manager) bool {
	var cands []*cast.UnaryOperator
	for _, uo := range incDecStmts(m) {
		if uo.Op == cast.UnPreInc || uo.Op == cast.UnPreDec {
			cands = append(cands, uo)
		}
	}
	if len(cands) == 0 {
		return false
	}
	uo := muast.RandElement(m, cands)
	return m.ReplaceNode(uo, m.GetSourceText(uo.X)+uo.Op.String())
}

func flattenConditionalExpr(m *muast.Manager) bool {
	cands := inBodies(m, func(ce *cast.ConditionalExpr) bool { return m.IsSideEffectFree(ce.Cond) })
	if len(cands) == 0 {
		return false
	}
	ce := muast.RandElement(m, cands)
	keep := ce.Then
	if m.RandBool(0.5) {
		keep = ce.Else
	}
	return m.ReplaceNode(ce, fmt.Sprintf("(%s ? (%s) : (%s))",
		m.GetSourceText(ce.Cond), m.GetSourceText(keep), m.GetSourceText(keep)))
}

func replaceArgWithDefault(m *muast.Manager) bool {
	var cands []cast.Expr
	for _, ce := range inBodies[*cast.CallExpr](m, nil) {
		for _, a := range ce.Args {
			if simpleScalar(a.Type()) {
				cands = append(cands, a)
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	arg := muast.RandElement(m, cands)
	return m.ReplaceNode(arg, m.DefaultValueExpr(arg.Type()))
}

func swapCallArguments(m *muast.Manager) bool {
	type pair struct{ a, b cast.Expr }
	var cands []pair
	for _, ce := range inBodies[*cast.CallExpr](m, nil) {
		for i := 0; i < len(ce.Args); i++ {
			for j := i + 1; j < len(ce.Args); j++ {
				if sameScalarType(ce.Args[i].Type(), ce.Args[j].Type()) {
					cands = append(cands, pair{ce.Args[i], ce.Args[j]})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	p := muast.RandElement(m, cands)
	ta, tb := m.GetSourceText(p.a), m.GetSourceText(p.b)
	return m.ReplaceNode(p.a, tb) && m.ReplaceNode(p.b, ta)
}

func expandLogicalToBitwise(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return bo.Op.IsLogical() &&
			m.IsSideEffectFree(bo.LHS) && m.IsSideEffectFree(bo.RHS) &&
			bo.LHS.Type().Decay().IsScalar() && bo.RHS.Type().Decay().IsScalar()
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	bitop := "&"
	if bo.Op == cast.BinLOr {
		bitop = "|"
	}
	return m.ReplaceNode(bo, fmt.Sprintf("(((%s) != 0) %s ((%s) != 0))",
		m.GetSourceText(bo.LHS), bitop, m.GetSourceText(bo.RHS)))
}

func bitwiseToLogical(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return (bo.Op == cast.BinAnd || bo.Op == cast.BinOr) &&
			bo.LHS.Type().IsInteger() && bo.RHS.Type().IsInteger()
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	logop := "&&"
	if bo.Op == cast.BinOr {
		logop = "||"
	}
	return m.ReplaceNode(bo, fmt.Sprintf("((%s) %s (%s))",
		m.GetSourceText(bo.LHS), logop, m.GetSourceText(bo.RHS)))
}

func addBitwiseNotTwice(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	return m.ReplaceNode(e, "(~~("+m.GetSourceText(e)+"))")
}

func addNegationTwice(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	return m.ReplaceNode(e, "(-(-("+m.GetSourceText(e)+")))")
}

func comparisonToSubtraction(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		switch bo.Op {
		case cast.BinLT, cast.BinGT, cast.BinLE, cast.BinGE:
			return bo.LHS.Type().IsInteger() && bo.RHS.Type().IsInteger()
		}
		return false
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	return m.ReplaceNode(bo, fmt.Sprintf("(((%s) - (%s)) %s 0)",
		m.GetSourceText(bo.LHS), m.GetSourceText(bo.RHS), bo.Op))
}

func expandEqualityToRelational(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		return bo.Op == cast.BinEQ &&
			bo.LHS.Type().IsInteger() && bo.RHS.Type().IsInteger() &&
			m.IsSideEffectFree(bo.LHS) && m.IsSideEffectFree(bo.RHS)
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	l, r := m.GetSourceText(bo.LHS), m.GetSourceText(bo.RHS)
	return m.ReplaceNode(bo, fmt.Sprintf("(((%s) <= (%s)) && ((%s) >= (%s)))",
		l, r, l, r))
}

func literalToCharLiteral(m *muast.Manager) bool {
	var cands []*cast.IntegerLiteral
	for _, il := range intLiterals(m) {
		if il.Value >= 32 && il.Value < 127 && il.Value != '\'' && il.Value != '\\' {
			cands = append(cands, il)
		}
	}
	if len(cands) == 0 {
		return false
	}
	il := muast.RandElement(m, cands)
	return m.ReplaceNode(il, fmt.Sprintf("'%c'", byte(il.Value)))
}

func intLiteralToHex(m *muast.Manager) bool {
	var cands []*cast.IntegerLiteral
	for _, il := range intLiterals(m) {
		if !strings.HasPrefix(il.Text, "0x") && !strings.HasPrefix(il.Text, "0X") &&
			il.Value >= 0 {
			cands = append(cands, il)
		}
	}
	if len(cands) == 0 {
		return false
	}
	il := muast.RandElement(m, cands)
	return m.ReplaceNode(il, fmt.Sprintf("0x%x", il.Value))
}

func addSizeofTerm(m *muast.Manager) bool {
	exprs := mutableIntExprs(m)
	if len(exprs) == 0 {
		return false
	}
	e := muast.RandElement(m, exprs)
	return m.ReplaceNode(e, fmt.Sprintf("((%s) + 0 * (int)sizeof(int))",
		m.GetSourceText(e)))
}

func replaceWithSameScopeVariable(m *muast.Manager) bool {
	pm := m.Parents()
	type vis struct {
		nm string
		d  cast.Decl
		ty cast.QualType
	}
	type inst struct {
		use *cast.DeclRefExpr
		nm  string
	}
	var cands []inst
	for _, fn := range m.Functions() {
		// Variables visible through the whole function: params + globals
		// (kept in declaration order for determinism).
		var visible []vis
		for _, g := range m.GlobalVars() {
			visible = append(visible, vis{g.Name, g, g.Ty})
		}
		for _, pv := range fn.Params {
			if pv.Name != "" {
				visible = append(visible, vis{pv.Name, pv, pv.Ty})
			}
		}
		for _, dr := range muast.Find(m, fn.Body, func(dr *cast.DeclRefExpr) bool {
			return !parentRequiresLvalue(pm, dr) && simpleScalar(dr.Type())
		}) {
			for _, v := range visible {
				if v.d != dr.Ref && sameScalarType(v.ty, dr.Type()) {
					cands = append(cands, inst{dr, v.nm})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	return m.ReplaceNode(c.use, c.nm)
}

func stringLiteralShrink(m *muast.Manager) bool {
	cands := inBodies(m, func(sl *cast.StringLiteral) bool {
		return len(sl.Value) > 1 && !strings.Contains(sl.Value, "%")
	})
	if len(cands) == 0 {
		return false
	}
	sl := muast.RandElement(m, cands)
	keep := m.Rand().Intn(len(sl.Value))
	return m.ReplaceNode(sl, fmt.Sprintf("%q", sl.Value[:keep]))
}

func constantFoldExpr(m *muast.Manager) bool {
	ops := inBodies(m, func(bo *cast.BinaryOperator) bool {
		if bo.Op.IsAssignment() {
			return false
		}
		_, lok := stripParens(bo.LHS).(*cast.IntegerLiteral)
		_, rok := stripParens(bo.RHS).(*cast.IntegerLiteral)
		return lok && rok
	})
	if len(ops) == 0 {
		return false
	}
	bo := muast.RandElement(m, ops)
	v, ok := cast.ConstIntValue(bo)
	if !ok {
		return false
	}
	return m.ReplaceNode(bo, fmt.Sprintf("%d", v))
}

func unfoldConstant(m *muast.Manager) bool {
	lits := intLiterals(m)
	if len(lits) == 0 {
		return false
	}
	il := muast.RandElement(m, lits)
	k := int64(m.Rand().Intn(100) + 1)
	return m.ReplaceNode(il, fmt.Sprintf("(%d - %d + %d)", il.Value-0, k, k))
}

func conditionAlwaysTrue(m *muast.Manager) bool {
	conds := conditions(m)
	var cands []cast.Expr
	pm := m.Parents()
	for _, c := range conds {
		// Forcing a while/for condition true would hang; restrict to if.
		if _, isIf := pm.Of(c).(*cast.IfStmt); isIf {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	return m.ReplaceNode(c, "(("+m.GetSourceText(c)+") || 1)")
}

func conditionAlwaysFalse(m *muast.Manager) bool {
	conds := conditions(m)
	if len(conds) == 0 {
		return false
	}
	c := muast.RandElement(m, conds)
	return m.ReplaceNode(c, "(("+m.GetSourceText(c)+") && 0)")
}

func modifyArrayIndex(m *muast.Manager) bool {
	cands := inBodies(m, hasIntIndex)
	if len(cands) == 0 {
		return false
	}
	ase := muast.RandElement(m, cands)
	delta := m.Rand().Intn(2) + 1
	op := "+"
	if m.RandBool(0.5) {
		op = "-"
	}
	return m.ReplaceNode(ase.Index, fmt.Sprintf("(%s) %s %d",
		m.GetSourceText(ase.Index), op, delta))
}

func replaceMemberWithOtherField(m *muast.Manager) bool {
	pm := m.Parents()
	type inst struct {
		me *cast.MemberExpr
		nm string
	}
	var cands []inst
	for _, me := range inBodies(m, func(me *cast.MemberExpr) bool {
		return me.FieldDecl != nil && !parentRequiresLvalue(pm, me)
	}) {
		target := me.Base.Type()
		if me.IsArrow {
			pt, ok := target.Decay().PointeeType()
			if !ok {
				continue
			}
			target = pt
		}
		rt, ok := target.Canonical().T.(*cast.RecordType)
		if !ok {
			continue
		}
		for _, f := range rt.Decl.Fields {
			if f.Name != me.Field && sameScalarType(f.Ty, me.FieldDecl.Ty) {
				cands = append(cands, inst{me, f.Name})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	sep := "."
	if c.me.IsArrow {
		sep = "->"
	}
	return m.ReplaceNode(c.me, m.GetSourceText(c.me.Base)+sep+c.nm)
}
