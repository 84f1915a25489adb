package mutators

import (
	"fmt"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// The 16 Variable mutators.
func init() {
	reg("RenameVariable",
		"This mutator selects a local variable and renames it, together with all of its uses, to a fresh unique identifier.",
		muast.CatVariable, muast.Supervised, false, renameVariable)

	reg("ChangeVarDeclQualifier",
		"This mutator adds or removes a const or volatile qualifier on a variable declaration, updating nothing else.",
		muast.CatVariable, muast.Supervised, false, changeVarDeclQualifier)

	reg("SwitchInitExpr",
		"This mutator randomly selects a VarDecl and swaps its init expression with the init expression of another randomly selected VarDecl in the same scope, while ensuring the types of the variables are compatible.",
		muast.CatVariable, muast.Supervised, false, switchInitExpr)

	reg("RemoveVarInitializer",
		"This mutator removes the initializer from a local variable declaration, leaving the variable uninitialized.",
		muast.CatVariable, muast.Supervised, false, removeVarInitializer)

	reg("DuplicateVarDecl",
		"This mutator duplicates a variable declaration under a fresh name, copying its type and initializer.",
		muast.CatVariable, muast.Supervised, false, duplicateVarDecl)

	reg("PromoteLocalToGlobal",
		"This mutator moves a local variable declaration to file scope, making it a global variable and keeping all uses intact.",
		muast.CatVariable, muast.Supervised, true, promoteLocalToGlobal)

	reg("DemoteGlobalToLocal",
		"This mutator copies a global scalar variable into a function as a shadowing local with the same name and type.",
		muast.CatVariable, muast.Unsupervised, true, demoteGlobalToLocal)

	reg("ChangeParamScope",
		"This mutator moves a function parameter from the parameter scope into the local scope of the function, initializing it with a default value.",
		muast.CatVariable, muast.Supervised, false, changeParamScope)

	reg("AggregateMemberToScalarVariable",
		"This mutator transforms an array subscript expression into a reference to a new scalar global variable, adding a declaration for it.",
		muast.CatVariable, muast.Supervised, false, aggregateMemberToScalarVariable)

	reg("CombineVariable",
		"This mutator combines a scalar global variable into a new long long variable and rewrites all references through pointer arithmetic on the combined storage.",
		muast.CatVariable, muast.Unsupervised, true, combineVariable)

	reg("SplitVarDecl",
		"This mutator splits an initialized local variable declaration into an uninitialized declaration followed by a separate assignment statement.",
		muast.CatVariable, muast.Unsupervised, false, splitVarDecl)

	reg("InitializeUninitializedVar",
		"This mutator finds an uninitialized local variable declaration and adds a default-value initializer to it.",
		muast.CatVariable, muast.Unsupervised, false, initializeUninitializedVar)

	reg("VarToArray",
		"This mutator turns a scalar local variable into a one-element array and rewrites every use into a subscript of element zero.",
		muast.CatVariable, muast.Supervised, true, varToArray)

	reg("ShadowVariableInBlock",
		"This mutator redeclares a visible variable inside a nested block, shadowing the outer declaration with a fresh initializer.",
		muast.CatVariable, muast.Supervised, false, shadowVariableInBlock)

	reg("AddStaticToLocal",
		"This mutator adds the static storage class to a local variable declaration, giving it static storage duration.",
		muast.CatVariable, muast.Supervised, false, addStaticToLocal)

	reg("SwapVarDeclOrder",
		"This mutator swaps two adjacent local declaration statements when the second does not depend on the first.",
		muast.CatVariable, muast.Supervised, false, swapVarDeclOrder)
}

func renameVariable(m *muast.Manager) bool {
	cands := localVarDecls(m, false)
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	uses := m.UsesOf(vd)
	fresh := m.GenerateUniqueName(vd.Name)
	if !m.ReplaceRange(vd.NameRange, fresh) {
		return false
	}
	for _, u := range uses {
		m.ReplaceNode(u, fresh)
	}
	return true
}

func changeVarDeclQualifier(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, vd := range append(m.GlobalVars(), m.LocalVars(nil)...) {
		if vd.NameRange.Len() > 0 {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	// Removing const from a var that is never written is always safe;
	// adding const to a var that is written would not compile. Check uses.
	written := false
	pm := m.Parents()
	for _, u := range m.UsesOf(vd) {
		if parentRequiresLvalue(pm, u) {
			written = true
			break
		}
	}
	switch {
	case vd.Ty.Q&cast.QualConst != 0:
		// Drop the const keyword.
		loc := m.FindStrLocFrom(vd.Range().Begin, "const")
		if loc < 0 || loc >= vd.NameRange.Begin {
			return false
		}
		return m.ReplaceRange(cast.SourceRange{Begin: loc, End: loc + len("const")}, "")
	case !written && vd.Init != nil:
		return m.InsertBefore(vd, "const ")
	default:
		// volatile is always safe to add.
		if vd.Ty.Q&cast.QualVolatile != 0 {
			return false
		}
		return m.InsertBefore(vd, "volatile ")
	}
}

func switchInitExpr(m *muast.Manager) bool {
	// Pair declarations of the same function, in declaration order.
	pm := m.Parents()
	vds := localVarDecls(m, true)
	fns := make([]*cast.FunctionDecl, len(vds))
	for i, vd := range vds {
		fns[i] = pm.EnclosingFunction(vd)
	}
	var pairs [][2]*cast.VarDecl
	for i := range vds {
		for j := i + 1; j < len(vds); j++ {
			if fns[i] == nil || fns[j] != fns[i] {
				continue
			}
			a, b := vds[i], vds[j]
			first := a
			if b.Range().Begin < first.Range().Begin {
				first = b
			}
			// Both inits must only reference declarations visible
			// before the FIRST of the two decls, or the swap moves a
			// use above its declaration.
			if m.CheckAssignment(a.Ty, b.Init.Type()) &&
				m.CheckAssignment(b.Ty, a.Init.Type()) &&
				m.IsSideEffectFree(a.Init) && m.IsSideEffectFree(b.Init) &&
				initRefsVisibleBefore(a.Init, first) &&
				initRefsVisibleBefore(b.Init, first) {
				pairs = append(pairs, [2]*cast.VarDecl{a, b})
			}
		}
	}
	if len(pairs) == 0 {
		return false
	}
	p := muast.RandElement(m, pairs)
	ta, tb := m.GetSourceText(p[0].Init), m.GetSourceText(p[1].Init)
	return m.ReplaceNode(p[0].Init, tb) && m.ReplaceNode(p[1].Init, ta)
}

// initRefsVisibleBefore reports whether every local variable referenced
// by e is declared strictly before decl's own position (globals,
// parameters and enum constants are always visible).
func initRefsVisibleBefore(e cast.Expr, decl *cast.VarDecl) bool {
	ok := true
	cast.Walk(e, func(n cast.Node) bool {
		dr, isRef := n.(*cast.DeclRefExpr)
		if !isRef {
			return ok
		}
		if vd, isVar := dr.Ref.(*cast.VarDecl); isVar && !vd.IsGlobal {
			if vd.Range().End > decl.Range().Begin {
				ok = false
			}
		}
		return ok
	})
	return ok
}

func removeVarInitializer(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	pm := m.Parents()
	for _, vd := range localVarDecls(m, true) {
		// Removing a const var's initializer leaves it unusable; skip.
		if vd.Ty.Q&cast.QualConst != 0 {
			continue
		}
		// Keep loop-init declarations intact ("for (int i = 0;...)").
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		cands = append(cands, vd)
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	r := cast.SourceRange{Begin: vd.NameRange.End, End: vd.InitRange.End}
	return m.ReplaceRange(r, "")
}

func duplicateVarDecl(m *muast.Manager) bool {
	cands := localVarDecls(m, true)
	var filtered []*cast.VarDecl
	pm := m.Parents()
	for _, vd := range cands {
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		if m.IsSideEffectFree(vd.Init) {
			filtered = append(filtered, vd)
		}
	}
	if len(filtered) == 0 {
		return false
	}
	vd := muast.RandElement(m, filtered)
	ds := declStmtFor(m, vd)
	if ds == nil {
		return false
	}
	fresh := m.GenerateUniqueName(vd.Name)
	decl := m.FormatAsDecl(vd.Ty, fresh) + " = " + m.GetSourceText(vd.Init) + ";"
	return m.InsertAfter(ds, "\n"+m.IndentOf(ds.Range().Begin)+decl)
}

func promoteLocalToGlobal(m *muast.Manager) bool {
	pm := m.Parents()
	var cands []*cast.VarDecl
	for _, vd := range localVarDecls(m, false) {
		if vd.Storage != cast.StorageNone {
			continue
		}
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		// Initializer must be a constant for file scope.
		if vd.Init != nil {
			if !isConstInit(vd.Init) {
				continue
			}
		}
		if !simpleScalar(vd.Ty) && !vd.Ty.IsArray() {
			continue
		}
		ds := declStmtFor(m, vd)
		if ds == nil || len(ds.Decls) != 1 {
			continue
		}
		// The name must not collide with an existing global.
		clash := false
		for _, g := range m.GlobalVars() {
			if g.Name == vd.Name {
				clash = true
				break
			}
		}
		if !clash {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	ds := declStmtFor(m, vd)
	text := m.GetSourceText(ds)
	if !m.ReplaceNode(ds, ";") {
		return false
	}
	fn := pm.EnclosingFunction(vd)
	return m.InsertBefore(fn, text+"\n")
}

// isConstInit reports whether e is a compile-time constant initializer.
func isConstInit(e cast.Expr) bool {
	ok := true
	cast.Walk(e, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.IntegerLiteral, *cast.FloatingLiteral, *cast.CharLiteral,
			*cast.StringLiteral, *cast.ParenExpr, *cast.UnaryOperator,
			*cast.BinaryOperator, *cast.InitListExpr, *cast.SizeofExpr:
			return true
		case *cast.DeclRefExpr:
			if _, isEnum := n.(*cast.DeclRefExpr).Ref.(*cast.EnumConstantDecl); isEnum {
				return true
			}
			ok = false
			return false
		default:
			ok = false
			return false
		}
	})
	return ok
}

func demoteGlobalToLocal(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, g := range m.GlobalVars() {
		if simpleScalar(g.Ty) && g.Ty.Q == 0 {
			cands = append(cands, g)
		}
	}
	fns := m.Functions()
	if len(cands) == 0 || len(fns) == 0 {
		return false
	}
	g := muast.RandElement(m, cands)
	fn := muast.RandElement(m, fns)
	if len(fn.Body.Stmts) == 0 {
		return false
	}
	decl := m.FormatAsDecl(g.Ty, g.Name) + " = " + m.DefaultValueExpr(g.Ty) + ";"
	first := fn.Body.Stmts[0]
	return m.InsertBefore(first, decl+"\n"+m.IndentOf(first.Range().Begin))
}

func changeParamScope(m *muast.Manager) bool {
	type inst struct {
		fn *cast.FunctionDecl
		pv *cast.ParmVarDecl
	}
	var cands []inst
	for _, fn := range m.Functions() {
		if len(m.CallsTo(fn)) > 0 {
			continue // callers would pass a now-removed argument
		}
		for _, pv := range fn.Params {
			if pv.Name != "" && simpleScalar(pv.Ty) {
				cands = append(cands, inst{fn, pv})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	if !m.RemoveParmFromFuncDecl(c.fn, c.pv) {
		return false
	}
	if len(c.fn.Body.Stmts) == 0 {
		return m.InsertBefore(c.fn.Body, fmt.Sprintf("{ %s = %s; }",
			m.FormatAsDecl(c.pv.Ty, c.pv.Name), m.DefaultValueExpr(c.pv.Ty)))
	}
	first := c.fn.Body.Stmts[0]
	decl := fmt.Sprintf("%s = %s;", m.FormatAsDecl(c.pv.Ty, c.pv.Name),
		m.DefaultValueExpr(c.pv.Ty))
	return m.InsertBefore(first, decl+"\n"+m.IndentOf(first.Range().Begin))
}

func aggregateMemberToScalarVariable(m *muast.Manager) bool {
	pm := m.Parents()
	cands := inBodies(m, func(ase *cast.ArraySubscriptExpr) bool {
		if !simpleScalar(ase.Type()) {
			return false
		}
		// Only direct global-array bases keep the rewrite well-typed.
		dr, ok := ase.Base.(*cast.DeclRefExpr)
		if !ok {
			return false
		}
		vd, ok := dr.Ref.(*cast.VarDecl)
		return ok && vd.IsGlobal
	})
	if len(cands) == 0 {
		return false
	}
	ase := muast.RandElement(m, cands)
	name := m.GenerateUniqueName(ase.Base.(*cast.DeclRefExpr).Name + "_elem")
	if !m.ReplaceNode(ase, name) {
		return false
	}
	fn := pm.EnclosingFunction(ase)
	decl := m.FormatAsDecl(ase.Type().Unqualified(), name) + ";"
	return m.InsertBefore(fn, decl+"\n")
}

func combineVariable(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, g := range m.GlobalVars() {
		if g.Init == nil && simpleScalar(g.Ty) && g.Ty.Q == 0 &&
			g.Ty.Size() > 0 && g.Ty.Size() <= 8 {
			cands = append(cands, g)
		}
	}
	if len(cands) == 0 {
		return false
	}
	g := muast.RandElement(m, cands)
	combined := m.GenerateUniqueName("combinedVar")
	uses := m.UsesOf(g)
	castTy := typeSpellingForCast(g.Ty)
	for _, u := range uses {
		repl := fmt.Sprintf("(*(%s *)((char *)&%s + 0))", castTy, combined)
		if !m.ReplaceNode(u, repl) {
			return false
		}
	}
	return m.ReplaceNode(g, "long long "+combined+";")
}

func splitVarDecl(m *muast.Manager) bool {
	pm := m.Parents()
	var cands []*cast.VarDecl
	for _, vd := range localVarDecls(m, true) {
		if vd.Ty.Q&cast.QualConst != 0 || vd.Ty.IsArray() || vd.Ty.IsRecord() {
			continue
		}
		if _, isList := vd.Init.(*cast.InitListExpr); isList {
			continue
		}
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		ds := declStmtFor(m, vd)
		if ds != nil && len(ds.Decls) == 1 {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	ds := declStmtFor(m, vd)
	initTxt := m.GetSourceText(vd.Init)
	decl := m.FormatAsDecl(vd.Ty, vd.Name) + ";"
	assign := fmt.Sprintf("%s = %s;", vd.Name, initTxt)
	return m.ReplaceNode(ds, decl+"\n"+m.IndentOf(ds.Range().Begin)+assign)
}

func initializeUninitializedVar(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, vd := range localVarDecls(m, false) {
		if vd.Init == nil && simpleScalar(vd.Ty) && vd.NameRange.Len() > 0 {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	return m.InsertAfterRange(vd.NameRange, " = "+m.DefaultValueExpr(vd.Ty))
}

func varToArray(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	pm := m.Parents()
	for _, vd := range localVarDecls(m, false) {
		if !simpleScalar(vd.Ty) || vd.Ty.Q != 0 || vd.NameRange.Len() == 0 {
			continue
		}
		if vd.Init != nil {
			if _, isList := vd.Init.(*cast.InitListExpr); isList {
				continue
			}
		}
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		cands = append(cands, vd)
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	if !m.InsertAfterRange(vd.NameRange, "[1]") {
		return false
	}
	if vd.Init != nil {
		if !m.InsertBefore(vd.Init, "{ ") || !m.InsertAfter(vd.Init, " }") {
			return false
		}
	}
	for _, u := range m.UsesOf(vd) {
		if !m.InsertAfter(u, "[0]") {
			return false
		}
	}
	return true
}

func shadowVariableInBlock(m *muast.Manager) bool {
	pm := m.Parents()
	type inst struct {
		vd    *cast.VarDecl
		block *cast.CompoundStmt
	}
	var cands []inst
	for _, vd := range localVarDecls(m, false) {
		if !simpleScalar(vd.Ty) || vd.Ty.Q != 0 {
			continue
		}
		// Find compound blocks nested inside the var's scope.
		fn := pm.EnclosingFunction(vd)
		if fn == nil {
			continue
		}
		for _, cs := range muast.Find(m, fn.Body, func(cs *cast.CompoundStmt) bool {
			return cs != fn.Body && cs.Range().Begin > vd.Range().End && len(cs.Stmts) > 0
		}) {
			cands = append(cands, inst{vd, cs})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	first := c.block.Stmts[0]
	decl := fmt.Sprintf("%s = %s;", m.FormatAsDecl(c.vd.Ty, c.vd.Name),
		m.DefaultValueExpr(c.vd.Ty))
	return m.InsertBefore(first, decl+"\n"+m.IndentOf(first.Range().Begin))
}

func addStaticToLocal(m *muast.Manager) bool {
	pm := m.Parents()
	var cands []*cast.VarDecl
	for _, vd := range localVarDecls(m, false) {
		if vd.Storage != cast.StorageNone {
			continue
		}
		if vd.Init != nil && !isConstInit(vd.Init) {
			continue // static initializers must be constant
		}
		if _, inFor := pm.Of(pm.Of(vd)).(*cast.ForStmt); inFor {
			continue
		}
		cands = append(cands, vd)
	}
	if len(cands) == 0 {
		return false
	}
	return m.InsertBefore(muast.RandElement(m, cands), "static ")
}

func swapVarDeclOrder(m *muast.Manager) bool {
	type pair struct{ a, b cast.Stmt }
	var cands []pair
	for _, cs := range inBodies[*cast.CompoundStmt](m, nil) {
		for i := 0; i+1 < len(cs.Stmts); i++ {
			d1, ok1 := cs.Stmts[i].(*cast.DeclStmt)
			d2, ok2 := cs.Stmts[i+1].(*cast.DeclStmt)
			if ok1 && ok2 && !declStmtDependsOn(d2, d1) && !declStmtDependsOn(d1, d2) {
				cands = append(cands, pair{d1, d2})
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

// declStmtDependsOn reports whether any initializer in a references a
// declaration in b.
func declStmtDependsOn(a, b *cast.DeclStmt) bool {
	decls := map[cast.Decl]bool{}
	for _, d := range b.Decls {
		decls[d] = true
	}
	dep := false
	cast.Walk(a, func(n cast.Node) bool {
		if dr, ok := n.(*cast.DeclRefExpr); ok && dr.Ref != nil && decls[dr.Ref] {
			dep = true
		}
		return !dep
	})
	return dep
}
