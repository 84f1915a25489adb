package mutators

import (
	"fmt"
	"strings"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// The 27 Statement mutators.
func init() {
	reg("DuplicateBranch",
		"This mutator finds an IfStmt, duplicates one of its branches (then or else), and replaces the other branch with the duplicated one.",
		muast.CatStatement, muast.Supervised, false, duplicateBranch)

	reg("TransformSwitchToIfElse",
		"This mutator identifies a 'switch' statement in the code and transforms it into an equivalent series of 'if-else' statements, effectively altering the control flow structure.",
		muast.CatStatement, muast.Unsupervised, true, transformSwitchToIfElse)

	reg("WrapStmtInIf",
		"This mutator wraps a statement into the then-branch of an always-true if statement.",
		muast.CatStatement, muast.Supervised, false, wrapStmtInIf)

	reg("WrapStmtInDoWhile",
		"This mutator wraps a statement into a do { ... } while (0) loop that executes exactly once.",
		muast.CatStatement, muast.Supervised, true, wrapStmtInDoWhile)

	reg("DeleteStatement",
		"This mutator deletes a randomly selected expression statement from a function body.",
		muast.CatStatement, muast.Supervised, false, deleteStatement)

	reg("DuplicateStatement",
		"This mutator duplicates a randomly selected expression statement, inserting the copy immediately after the original.",
		muast.CatStatement, muast.Supervised, false, duplicateStatement)

	reg("SwapAdjacentStatements",
		"This mutator swaps two adjacent expression statements within the same block.",
		muast.CatStatement, muast.Unsupervised, false, swapAdjacentStatements)

	reg("ForToWhile",
		"This mutator rewrites a for loop into an equivalent while loop, hoisting the init clause and sinking the post clause.",
		muast.CatStatement, muast.Supervised, false, forToWhile)

	reg("WhileToFor",
		"This mutator rewrites a while loop into an equivalent for loop with empty init and post clauses.",
		muast.CatStatement, muast.Supervised, false, whileToFor)

	reg("WhileToDoWhile",
		"This mutator converts a while loop into a do-while loop guarded by an if statement with the same condition.",
		muast.CatStatement, muast.Supervised, false, whileToDoWhile)

	reg("DoWhileToWhile",
		"This mutator converts a do-while loop into a while loop preceded by one unconditional copy of the body.",
		muast.CatStatement, muast.Supervised, false, doWhileToWhile)

	reg("UnrollLoopOnce",
		"This mutator peels one iteration off a while loop, copying the guarded body before the loop.",
		muast.CatStatement, muast.Supervised, true, unrollLoopOnce)

	reg("AddBreakToLoop",
		"This mutator inserts a conditionally dead 'if (0) break;' statement into a loop body.",
		muast.CatStatement, muast.Unsupervised, false, addBreakToLoop)

	reg("AddContinueToLoop",
		"This mutator inserts a conditionally dead 'if (0) continue;' statement into a loop body.",
		muast.CatStatement, muast.Unsupervised, false, addContinueToLoop)

	reg("RemoveElseBranch",
		"This mutator removes the else branch of an if statement.",
		muast.CatStatement, muast.Supervised, false, removeElseBranch)

	reg("AddElseBranch",
		"This mutator adds an empty else branch to an if statement that lacks one.",
		muast.CatStatement, muast.Supervised, false, addElseBranch)

	reg("SwapThenElse",
		"This mutator swaps the then and else branches of an if statement, leaving the condition unchanged.",
		muast.CatStatement, muast.Unsupervised, false, swapThenElse)

	reg("InsertForwardGoto",
		"This mutator inserts a goto that jumps over the next statement to a fresh label placed immediately after it.",
		muast.CatStatement, muast.Supervised, true, insertForwardGoto)

	reg("CaseFallthroughToggle",
		"This mutator removes the trailing break of a switch case, introducing a fall-through to the next case.",
		muast.CatStatement, muast.Supervised, false, caseFallthroughToggle)

	reg("AddDefaultToSwitch",
		"This mutator adds an empty default label to a switch statement that lacks one.",
		muast.CatStatement, muast.Supervised, false, addDefaultToSwitch)

	reg("RemoveDefaultFromSwitch",
		"This mutator removes the default label (and its statement) from a switch statement.",
		muast.CatStatement, muast.Unsupervised, false, removeDefaultFromSwitch)

	reg("MergeNestedIf",
		"This mutator merges a nested if-inside-if into a single if whose condition is the conjunction of both conditions.",
		muast.CatStatement, muast.Supervised, false, mergeNestedIf)

	reg("SplitCompoundCondition",
		"This mutator splits an if statement whose condition is a logical AND into two nested if statements.",
		muast.CatStatement, muast.Unsupervised, false, splitCompoundCondition)

	reg("HoistDeclToTop",
		"This mutator hoists a mid-block variable declaration to the top of its block, leaving an assignment at the original position.",
		muast.CatStatement, muast.Supervised, false, hoistDeclToTop)

	reg("GuardStmtWithOpaquePredicate",
		"This mutator guards a statement with an opaquely true predicate built from an existing integer variable, such as ((x ^ x) == 0).",
		muast.CatStatement, muast.Supervised, true, guardStmtWithOpaquePredicate)

	reg("EmptyLoopBody",
		"This mutator replaces a loop body with an empty statement, keeping the loop header intact.",
		muast.CatStatement, muast.Supervised, false, emptyLoopBody)

	reg("InsertDeadReturn",
		"This mutator inserts an unreachable 'if (0) return ...;' statement at the beginning of a function body.",
		muast.CatStatement, muast.Unsupervised, false, insertDeadReturn)
}

// isLoop reports whether s is a while, do or for loop.
func isLoop(s cast.Stmt) bool {
	switch s.(type) {
	case *cast.WhileStmt, *cast.DoStmt, *cast.ForStmt:
		return true
	}
	return false
}

// loopBody returns the body of a loop statement.
func loopBody(s cast.Stmt) cast.Stmt {
	switch l := s.(type) {
	case *cast.WhileStmt:
		return l.Body
	case *cast.DoStmt:
		return l.Body
	case *cast.ForStmt:
		return l.Body
	}
	return nil
}

// stmtHasDecl reports whether a statement subtree declares anything
// (duplicating it would redeclare).
func stmtHasDecl(s cast.Stmt) bool {
	found := false
	cast.Walk(s, func(n cast.Node) bool {
		if _, ok := n.(*cast.DeclStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// stmtHasLabel reports whether a statement subtree defines a label
// (duplicating it would redefine the label).
func stmtHasLabel(s cast.Stmt) bool {
	found := false
	cast.Walk(s, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.LabelStmt, *cast.CaseStmt, *cast.DefaultStmt:
			found = true
		}
		return !found
	})
	return found
}

// plainExprStmt reports whether s is an expression statement that
// defines no label, so it can be copied, moved or wrapped.
func plainExprStmt(s cast.Stmt) bool {
	_, ok := s.(*cast.ExprStmt)
	return ok && !stmtHasLabel(s)
}

func duplicateBranch(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool {
		return is.Else != nil &&
			!stmtHasDecl(is.Then) && !stmtHasLabel(is.Then) &&
			!stmtHasDecl(is.Else) && !stmtHasLabel(is.Else)
	})
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	if m.RandBool(0.5) {
		return m.ReplaceNode(is.Else, m.GetSourceText(is.Then))
	}
	return m.ReplaceNode(is.Then, m.GetSourceText(is.Else))
}

func transformSwitchToIfElse(m *muast.Manager) bool {
	// Only switches of the shape { case...: stmts break; ... } with no
	// fall-through and side-effect-free conditions convert directly.
	type caseInfo struct {
		value string
		body  []string
	}
	cands := inBodies(m, func(ss *cast.SwitchStmt) bool {
		return m.IsSideEffectFree(ss.Cond) && switchIsSimple(ss)
	})
	if len(cands) == 0 {
		return false
	}
	ss := muast.RandElement(m, cands)
	cond := m.GetSourceText(ss.Cond)
	var cases []caseInfo
	var defaultBody []string
	body := ss.Body.(*cast.CompoundStmt)
	var cur *caseInfo
	inDefault := false
	flush := func() {
		if cur != nil {
			cases = append(cases, *cur)
			cur = nil
		}
	}
	var gather func(s cast.Stmt)
	gather = func(s cast.Stmt) {
		switch x := s.(type) {
		case *cast.CaseStmt:
			flush()
			inDefault = false
			cur = &caseInfo{value: m.GetSourceText(x.Value)}
			if x.Body != nil {
				gather(x.Body)
			}
		case *cast.DefaultStmt:
			flush()
			inDefault = true
			if x.Body != nil {
				gather(x.Body)
			}
		case *cast.BreakStmt:
			// Terminates the current arm; nothing to emit.
		default:
			txt := m.GetSourceText(s)
			if inDefault {
				defaultBody = append(defaultBody, txt)
			} else if cur != nil {
				cur.body = append(cur.body, txt)
			}
		}
	}
	for _, s := range body.Stmts {
		gather(s)
	}
	flush()
	if len(cases) == 0 {
		return false
	}
	var sb strings.Builder
	for i, ci := range cases {
		if i > 0 {
			sb.WriteString(" else ")
		}
		fmt.Fprintf(&sb, "if ((%s) == (%s)) { %s }", cond, ci.value,
			strings.Join(ci.body, " "))
	}
	if len(defaultBody) > 0 {
		fmt.Fprintf(&sb, " else { %s }", strings.Join(defaultBody, " "))
	}
	return m.ReplaceNode(ss, sb.String())
}

// switchIsSimple verifies each case arm ends with break and contains no
// declarations, labels, or nested fallthrough hazards.
func switchIsSimple(ss *cast.SwitchStmt) bool {
	body, ok := ss.Body.(*cast.CompoundStmt)
	if !ok || len(body.Stmts) == 0 {
		return false
	}
	sawCase := false
	lastWasBreak := false
	for _, s := range body.Stmts {
		switch s.(type) {
		case *cast.CaseStmt, *cast.DefaultStmt:
			// A new arm must start after a break (or at the beginning).
			if sawCase && !lastWasBreak {
				return false
			}
			sawCase = true
			lastWasBreak = caseEndsWithBreakOrEmpty(s)
		case *cast.BreakStmt:
			lastWasBreak = true
		case *cast.DeclStmt, *cast.LabelStmt, *cast.GotoStmt, *cast.SwitchStmt:
			return false
		default:
			if !sawCase || stmtHasDecl(s.(cast.Stmt)) || stmtHasLabel(s.(cast.Stmt)) ||
				containsBreakOutsideLoop(s.(cast.Stmt)) {
				return false
			}
			lastWasBreak = false
		}
	}
	return lastWasBreak
}

func caseEndsWithBreakOrEmpty(s cast.Stmt) bool {
	switch x := s.(type) {
	case *cast.CaseStmt:
		if x.Body == nil {
			return false
		}
		_, isBrk := x.Body.(*cast.BreakStmt)
		return isBrk
	case *cast.DefaultStmt:
		if x.Body == nil {
			return false
		}
		_, isBrk := x.Body.(*cast.BreakStmt)
		return isBrk
	}
	return false
}

// containsBreakOutsideLoop reports whether s has a break not enclosed in
// a nested loop/switch (such a break belongs to the outer switch and
// would change meaning if the switch becomes if-else).
func containsBreakOutsideLoop(s cast.Stmt) bool {
	found := false
	var rec func(n cast.Node)
	rec = func(n cast.Node) {
		switch n.(type) {
		case *cast.WhileStmt, *cast.DoStmt, *cast.ForStmt, *cast.SwitchStmt:
			return // breaks below bind to this construct
		case *cast.BreakStmt:
			found = true
			return
		}
		for _, c := range cast.Children(n) {
			rec(c)
		}
	}
	rec(s)
	return found
}

func wrapStmtInIf(m *muast.Manager) bool {
	cands := bodyStmts(m, func(s cast.Stmt) bool {
		switch s.(type) {
		case *cast.ExprStmt, *cast.ReturnStmt, *cast.CompoundStmt:
			return !stmtHasDecl(s) && !stmtHasLabel(s)
		}
		return false
	})
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	return m.ReplaceNode(s, "if (1) { "+m.GetSourceText(s)+" }")
}

func wrapStmtInDoWhile(m *muast.Manager) bool {
	// return/break/continue inside do-while change meaning; only plain
	// expression statements are safe.
	cands := bodyStmts(m, plainExprStmt)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	return m.ReplaceNode(s, "do { "+m.GetSourceText(s)+" } while (0);")
}

func deleteStatement(m *muast.Manager) bool {
	cands := bodyStmts(m, plainExprStmt)
	if len(cands) == 0 {
		return false
	}
	return m.ReplaceNode(muast.RandElement(m, cands), ";")
}

func duplicateStatement(m *muast.Manager) bool {
	cands := bodyStmts(m, plainExprStmt)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	txt := m.GetSourceText(s)
	return m.InsertAfter(s, "\n"+m.IndentOf(s.Range().Begin)+txt)
}

func swapAdjacentStatements(m *muast.Manager) bool {
	type pair struct{ a, b cast.Stmt }
	var cands []pair
	for _, cs := range inBodies[*cast.CompoundStmt](m, nil) {
		for i := 0; i+1 < len(cs.Stmts); i++ {
			if plainExprStmt(cs.Stmts[i]) && plainExprStmt(cs.Stmts[i+1]) {
				cands = append(cands, pair{cs.Stmts[i], cs.Stmts[i+1]})
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

func forToWhile(m *muast.Manager) bool {
	// continue would skip the post clause if sunk into the body. A
	// DeclStmt init scopes to the for; hoisting into an outer block is
	// only safe when wrapped, which we do below, so allow it.
	cands := inBodies(m, func(fs *cast.ForStmt) bool { return !loopBodyHasContinue(fs.Body) })
	if len(cands) == 0 {
		return false
	}
	fs := muast.RandElement(m, cands)
	var sb strings.Builder
	sb.WriteString("{ ")
	if fs.Init != nil {
		sb.WriteString(strings.TrimSpace(m.GetSourceText(fs.Init)))
		sb.WriteString(" ")
	}
	cond := "1"
	if fs.Cond != nil {
		cond = m.GetSourceText(fs.Cond)
	}
	fmt.Fprintf(&sb, "while (%s) { ", cond)
	sb.WriteString(blockInner(m, fs.Body))
	if fs.Post != nil {
		fmt.Fprintf(&sb, " %s;", m.GetSourceText(fs.Post))
	}
	sb.WriteString(" } }")
	return m.ReplaceNode(fs, sb.String())
}

// loopBodyHasContinue reports whether body contains a continue bound to
// this loop (not a nested one).
func loopBodyHasContinue(body cast.Stmt) bool {
	found := false
	var rec func(n cast.Node)
	rec = func(n cast.Node) {
		switch n.(type) {
		case *cast.WhileStmt, *cast.DoStmt, *cast.ForStmt:
			return
		case *cast.ContinueStmt:
			found = true
			return
		}
		for _, c := range cast.Children(n) {
			rec(c)
		}
	}
	rec(body)
	return found
}

// blockInner renders a loop body without its enclosing braces.
func blockInner(m *muast.Manager, body cast.Stmt) string {
	if cs, ok := body.(*cast.CompoundStmt); ok {
		txt := m.GetSourceText(cs)
		txt = strings.TrimSpace(txt)
		txt = strings.TrimPrefix(txt, "{")
		txt = strings.TrimSuffix(txt, "}")
		return strings.TrimSpace(txt)
	}
	return m.GetSourceText(body)
}

func whileToFor(m *muast.Manager) bool {
	cands := inBodies[*cast.WhileStmt](m, nil)
	if len(cands) == 0 {
		return false
	}
	ws := muast.RandElement(m, cands)
	return m.ReplaceNode(ws, fmt.Sprintf("for (; %s; ) %s",
		m.GetSourceText(ws.Cond), m.GetSourceText(ws.Body)))
}

func whileToDoWhile(m *muast.Manager) bool {
	cands := inBodies(m, func(ws *cast.WhileStmt) bool {
		return m.IsSideEffectFree(ws.Cond) && !stmtHasDecl(ws.Body) && !stmtHasLabel(ws.Body)
	})
	if len(cands) == 0 {
		return false
	}
	ws := muast.RandElement(m, cands)
	cond := m.GetSourceText(ws.Cond)
	body := m.GetSourceText(ws.Body)
	return m.ReplaceNode(ws, fmt.Sprintf("if (%s) do %s while (%s);",
		cond, body, cond))
}

func doWhileToWhile(m *muast.Manager) bool {
	cands := inBodies(m, func(ds *cast.DoStmt) bool {
		return !stmtHasDecl(ds.Body) && !stmtHasLabel(ds.Body) &&
			!loopBodyHasBreakOrContinue(ds.Body)
	})
	if len(cands) == 0 {
		return false
	}
	ds := muast.RandElement(m, cands)
	body := m.GetSourceText(ds.Body)
	cond := m.GetSourceText(ds.Cond)
	return m.ReplaceNode(ds, fmt.Sprintf("{ %s while (%s) %s }",
		ensureBlock(body), cond, body))
}

func loopBodyHasBreakOrContinue(body cast.Stmt) bool {
	found := false
	var rec func(n cast.Node)
	rec = func(n cast.Node) {
		switch n.(type) {
		case *cast.WhileStmt, *cast.DoStmt, *cast.ForStmt, *cast.SwitchStmt:
			return
		case *cast.BreakStmt, *cast.ContinueStmt:
			found = true
			return
		}
		for _, c := range cast.Children(n) {
			rec(c)
		}
	}
	rec(body)
	return found
}

// ensureBlock wraps text in braces if it is not already a block.
func ensureBlock(text string) string {
	t := strings.TrimSpace(text)
	if strings.HasPrefix(t, "{") {
		return t
	}
	return "{ " + t + " }"
}

func unrollLoopOnce(m *muast.Manager) bool {
	cands := inBodies(m, func(ws *cast.WhileStmt) bool {
		return m.IsSideEffectFree(ws.Cond) && !stmtHasDecl(ws.Body) && !stmtHasLabel(ws.Body) &&
			!loopBodyHasBreakOrContinue(ws.Body)
	})
	if len(cands) == 0 {
		return false
	}
	ws := muast.RandElement(m, cands)
	cond := m.GetSourceText(ws.Cond)
	body := m.GetSourceText(ws.Body)
	peeled := fmt.Sprintf("if (%s) %s ", cond, ensureBlock(body))
	return m.InsertBefore(ws, peeled)
}

func addBreakToLoop(m *muast.Manager) bool {
	ls := inBodies(m, isLoop)
	if len(ls) == 0 {
		return false
	}
	l := muast.RandElement(m, ls)
	body := loopBody(l)
	if cs, ok := body.(*cast.CompoundStmt); ok {
		if len(cs.Stmts) > 0 {
			anchor := cs.Stmts[0]
			return m.InsertBefore(anchor,
				"if (0) break;\n"+m.IndentOf(anchor.Range().Begin))
		}
		return m.ReplaceNode(cs, "{ if (0) break; }")
	}
	return m.ReplaceNode(body, "{ if (0) break; "+m.GetSourceText(body)+" }")
}

func addContinueToLoop(m *muast.Manager) bool {
	ls := inBodies(m, isLoop)
	if len(ls) == 0 {
		return false
	}
	l := muast.RandElement(m, ls)
	body := loopBody(l)
	if cs, ok := body.(*cast.CompoundStmt); ok {
		if len(cs.Stmts) > 0 {
			anchor := cs.Stmts[0]
			return m.InsertBefore(anchor,
				"if (0) continue;\n"+m.IndentOf(anchor.Range().Begin))
		}
		return m.ReplaceNode(cs, "{ if (0) continue; }")
	}
	return m.ReplaceNode(body, "{ if (0) continue; "+m.GetSourceText(body)+" }")
}

func removeElseBranch(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool { return is.Else != nil })
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	// Remove from end of then-branch through the else body.
	r := cast.SourceRange{Begin: is.Then.Range().End, End: is.Else.Range().End}
	return m.ReplaceRange(r, "")
}

func addElseBranch(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool { return is.Else == nil })
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	return m.InsertAfter(is.Then, " else { ; }")
}

func swapThenElse(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool {
		return is.Else != nil &&
			!isElseIf(is.Else) // "else if" text swap would garble syntax
	})
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	tThen, tElse := m.GetSourceText(is.Then), m.GetSourceText(is.Else)
	return m.ReplaceNode(is.Then, ensureBlock(tElse)) &&
		m.ReplaceNode(is.Else, ensureBlock(tThen))
}

func isElseIf(s cast.Stmt) bool {
	_, ok := s.(*cast.IfStmt)
	return ok
}

func insertForwardGoto(m *muast.Manager) bool {
	cands := bodyStmts(m, plainExprStmt)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	label := m.GenerateUniqueName("skip")
	indent := m.IndentOf(s.Range().Begin)
	if !m.InsertBefore(s, fmt.Sprintf("goto %s;\n%s", label, indent)) {
		return false
	}
	return m.InsertAfter(s, fmt.Sprintf("\n%s%s: ;", indent, label))
}

func caseFallthroughToggle(m *muast.Manager) bool {
	// Find break statements directly inside switch bodies.
	var cands []*cast.BreakStmt
	for _, ss := range inBodies[*cast.SwitchStmt](m, nil) {
		if cs, ok := ss.Body.(*cast.CompoundStmt); ok {
			for i, s := range cs.Stmts {
				if bs, ok := s.(*cast.BreakStmt); ok && i < len(cs.Stmts)-1 {
					cands = append(cands, bs)
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	return m.ReplaceNode(muast.RandElement(m, cands), ";")
}

func addDefaultToSwitch(m *muast.Manager) bool {
	cands := inBodies(m, func(ss *cast.SwitchStmt) bool {
		cs, ok := ss.Body.(*cast.CompoundStmt)
		if !ok || len(cs.Stmts) == 0 {
			return false
		}
		for _, s := range cs.Stmts {
			if _, ok := s.(*cast.DefaultStmt); ok {
				return false
			}
		}
		return true
	})
	if len(cands) == 0 {
		return false
	}
	ss := muast.RandElement(m, cands)
	cs := ss.Body.(*cast.CompoundStmt)
	// Insert before the closing brace.
	end := cs.Range().End - 1
	return m.ReplaceRange(cast.SourceRange{Begin: end, End: end},
		"default: break;\n")
}

func removeDefaultFromSwitch(m *muast.Manager) bool {
	// Only remove a self-contained default arm.
	cands := inBodies(m, func(ds *cast.DefaultStmt) bool {
		return ds.Body != nil && !stmtHasDecl(ds.Body)
	})
	if len(cands) == 0 {
		return false
	}
	return m.ReplaceNode(muast.RandElement(m, cands), ";")
}

func mergeNestedIf(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool {
		if is.Else != nil {
			return false
		}
		inner, ok := is.Then.(*cast.IfStmt)
		if !ok {
			// Also accept { if (...) ... } with a single statement.
			cs, ok := is.Then.(*cast.CompoundStmt)
			if !ok || len(cs.Stmts) != 1 {
				return false
			}
			inner, ok = cs.Stmts[0].(*cast.IfStmt)
			if !ok {
				return false
			}
		}
		return inner.Else == nil
	})
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	inner, ok := is.Then.(*cast.IfStmt)
	if !ok {
		inner = is.Then.(*cast.CompoundStmt).Stmts[0].(*cast.IfStmt)
	}
	return m.ReplaceNode(is, fmt.Sprintf("if ((%s) && (%s)) %s",
		m.GetSourceText(is.Cond), m.GetSourceText(inner.Cond),
		ensureBlock(m.GetSourceText(inner.Then))))
}

func splitCompoundCondition(m *muast.Manager) bool {
	cands := inBodies(m, func(is *cast.IfStmt) bool {
		if is.Else != nil {
			return false
		}
		bo, ok := stripParens(is.Cond).(*cast.BinaryOperator)
		return ok && bo.Op == cast.BinLAnd
	})
	if len(cands) == 0 {
		return false
	}
	is := muast.RandElement(m, cands)
	bo := stripParens(is.Cond).(*cast.BinaryOperator)
	return m.ReplaceNode(is, fmt.Sprintf("if (%s) { if (%s) %s }",
		m.GetSourceText(bo.LHS), m.GetSourceText(bo.RHS),
		ensureBlock(m.GetSourceText(is.Then))))
}

func hoistDeclToTop(m *muast.Manager) bool {
	type inst struct {
		ds    *cast.DeclStmt
		vd    *cast.VarDecl
		block *cast.CompoundStmt
	}
	var cands []inst
	for _, cs := range inBodies[*cast.CompoundStmt](m, nil) {
		// Statement 0 is already at the top.
		for i := 1; i < len(cs.Stmts); i++ {
			ds, ok := cs.Stmts[i].(*cast.DeclStmt)
			if !ok || len(ds.Decls) != 1 {
				continue
			}
			vd, ok := ds.Decls[0].(*cast.VarDecl)
			if !ok || vd.Init == nil || !simpleScalar(vd.Ty) ||
				vd.Ty.Q != 0 || vd.Storage != cast.StorageNone {
				continue
			}
			// The name must not already be visible at block top.
			if nameUsedBefore(cs, i, vd.Name) {
				continue
			}
			cands = append(cands, inst{ds, vd, cs})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	decl := m.FormatAsDecl(c.vd.Ty, c.vd.Name) + ";"
	assign := fmt.Sprintf("%s = %s;", c.vd.Name, m.GetSourceText(c.vd.Init))
	first := c.block.Stmts[0]
	if !m.InsertBefore(first, decl+"\n"+m.IndentOf(first.Range().Begin)) {
		return false
	}
	return m.ReplaceNode(c.ds, assign)
}

// nameUsedBefore reports whether name is referenced in block statements
// before index i (which would then bind to a different declaration).
func nameUsedBefore(cs *cast.CompoundStmt, i int, name string) bool {
	for j := 0; j < i; j++ {
		used := false
		cast.Walk(cs.Stmts[j], func(n cast.Node) bool {
			switch x := n.(type) {
			case *cast.DeclRefExpr:
				if x.Name == name {
					used = true
				}
			case *cast.VarDecl:
				if x.Name == name {
					used = true
				}
			}
			return !used
		})
		if used {
			return true
		}
	}
	return false
}

func guardStmtWithOpaquePredicate(m *muast.Manager) bool {
	type inst struct {
		s  cast.Stmt
		nm string
	}
	var cands []inst
	for _, fn := range m.Functions() {
		// Need an in-scope integer variable: use a parameter.
		var intVar string
		for _, pv := range fn.Params {
			if pv.Name != "" && pv.Ty.IsInteger() {
				intVar = pv.Name
				break
			}
		}
		if intVar == "" {
			continue
		}
		for _, cs := range muast.Find[*cast.CompoundStmt](m, fn.Body, nil) {
			for _, s := range cs.Stmts {
				if plainExprStmt(s) {
					cands = append(cands, inst{s, intVar})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	return m.ReplaceNode(c.s, fmt.Sprintf("if (((%s ^ %s) == 0)) { %s }",
		c.nm, c.nm, m.GetSourceText(c.s)))
}

func emptyLoopBody(m *muast.Manager) bool {
	// Emptying a while/do body whose condition never changes would hang
	// at runtime, but the paper's validation only requires the mutant to
	// compile; still, restrict to for loops with a post clause so
	// termination behavior is usually preserved.
	var cands []cast.Stmt
	for _, fs := range inBodies(m, func(fs *cast.ForStmt) bool {
		return fs.Post != nil && !stmtHasLabel(fs.Body)
	}) {
		cands = append(cands, fs.Body)
	}
	if len(cands) == 0 {
		return false
	}
	return m.ReplaceNode(muast.RandElement(m, cands), "{ ; }")
}

func insertDeadReturn(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if len(fn.Body.Stmts) > 0 {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	ret := "return;"
	if !fn.Ret.IsVoid() {
		ret = "return " + m.DefaultValueExpr(fn.Ret) + ";"
	}
	first := fn.Body.Stmts[0]
	return m.InsertBefore(first,
		fmt.Sprintf("if (0) %s\n%s", ret, m.IndentOf(first.Range().Begin)))
}
