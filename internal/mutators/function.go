package mutators

import (
	"fmt"
	"strings"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// The 19 Function mutators.
func init() {
	reg("ModifyFunctionReturnTypeToVoid",
		"Change a function's return type to void, remove all return statements, and replace all uses of the function's result with a default value.",
		muast.CatFunction, muast.Supervised, true, modifyFunctionReturnTypeToVoid)

	reg("SimpleUninliner",
		"Turn a block of code into a function call.",
		muast.CatFunction, muast.Supervised, true, simpleUninliner)

	reg("InlineFunctionCall",
		"This mutator inlines a call to a constant-returning function, replacing the call expression with the returned constant.",
		muast.CatFunction, muast.Supervised, true, inlineFunctionCall)

	reg("AddFunctionParameter",
		"This mutator adds a new integer parameter to a function and passes a default argument at every call site.",
		muast.CatFunction, muast.Supervised, false, addFunctionParameter)

	reg("RemoveFunctionParameter",
		"This mutator removes an unused parameter from a function declaration and drops the corresponding argument at every call site.",
		muast.CatFunction, muast.Supervised, false, removeFunctionParameter)

	reg("ReorderFunctionParameters",
		"This mutator swaps two parameters of the same type in a function declaration and swaps the corresponding arguments at every call site.",
		muast.CatFunction, muast.Unsupervised, false, reorderFunctionParameters)

	reg("DuplicateFunction",
		"This mutator duplicates a function definition under a fresh name and retargets one call site to the copy.",
		muast.CatFunction, muast.Supervised, false, duplicateFunction)

	reg("RenameFunction",
		"This mutator renames a function definition and all of its call sites to a fresh unique identifier.",
		muast.CatFunction, muast.Unsupervised, false, renameFunction)

	reg("MakeFunctionStatic",
		"This mutator adds the static storage class to a function definition, giving it internal linkage.",
		muast.CatFunction, muast.Supervised, false, makeFunctionStatic)

	reg("WrapFunctionBody",
		"This mutator wraps the entire body of a function in an extra nested block.",
		muast.CatFunction, muast.Unsupervised, true, wrapFunctionBody)

	reg("CallViaPointerDeref",
		"This mutator rewrites a direct call f(args) into the explicit function-pointer form (*f)(args).",
		muast.CatFunction, muast.Unsupervised, true, callViaPointerDeref)

	reg("ChangeReturnExpr",
		"This mutator perturbs the expression of a return statement while keeping its type.",
		muast.CatFunction, muast.Supervised, false, changeReturnExpr)

	reg("AddVoidWrapperFunction",
		"This mutator creates a wrapper function that forwards to an existing function, and retargets one call site through the wrapper.",
		muast.CatFunction, muast.Supervised, true, addVoidWrapperFunction)

	reg("SwapFunctionBodies",
		"This mutator swaps the bodies of two functions that have identical signatures.",
		muast.CatFunction, muast.Unsupervised, true, swapFunctionBodies)

	reg("AddPrototypeBeforeUse",
		"This mutator emits an explicit prototype at the top of the file for a function defined later.",
		muast.CatFunction, muast.Supervised, false, addPrototypeBeforeUse)

	reg("MakeParamsConst",
		"This mutator adds a const qualifier to a scalar parameter that is never written.",
		muast.CatFunction, muast.Unsupervised, false, makeParamsConst)

	reg("ReturnConstantFunction",
		"This mutator replaces the body of a non-void function with a single return of a default constant.",
		muast.CatFunction, muast.Unsupervised, false, returnConstantFunction)

	reg("ExtractExprToHelper",
		"This mutator extracts a side-effect-free expression over globals into a new helper function and replaces the expression with a call.",
		muast.CatFunction, muast.Supervised, true, extractExprToHelper)

	reg("AddInlineSpecifier",
		"This mutator adds the inline specifier to a static function definition.",
		muast.CatFunction, muast.Supervised, false, addInlineSpecifier)
}

// modifyFunctionReturnTypeToVoid is the paper's running example (Ret2V,
// Figures 3-5): change a function's return type to void, strip its return
// statements, and rewrite every call-site use with a constant.
func modifyFunctionReturnTypeToVoid(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Ret.IsVoid() || fn.Name == "main" || !simpleScalar(fn.Ret) {
			continue
		}
		if fn.Storage == cast.StorageTypedef {
			continue
		}
		// Skip functions with a separate prototype: rewriting only the
		// definition would leave conflicting declarations.
		if hasSeparatePrototype(m, fn) {
			continue
		}
		cands = append(cands, fn)
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)

	// Change the return type to void (keep storage-class words by
	// replacing only the type spelling region minus the name).
	if !m.ReplaceRange(fn.RetTypeRange, retTypePrefix(fn)+"void ") {
		return false
	}
	// Remove all return statements (of THIS function — the fix GPT-4
	// needed two refinement rounds to get right, Figure 4).
	for _, rs := range m.ReturnsOf(fn) {
		if rs.Value != nil {
			if !m.ReplaceNode(rs, ";") {
				return false
			}
		}
	}
	// Replace all calls with a constant of the former return type.
	repl := "0"
	if fn.Ret.IsFloating() {
		repl = "0.0"
	}
	pm := m.Parents()
	for _, call := range m.CallsTo(fn) {
		if _, ok := pm.Of(call).(*cast.ExprStmt); ok {
			// A statement-position call can simply keep calling.
			continue
		}
		if !m.ReplaceNode(call, repl) {
			return false
		}
	}
	return true
}

// retTypePrefix preserves storage-class/inline words when rewriting a
// function's return-type spelling.
func retTypePrefix(fn *cast.FunctionDecl) string {
	var parts []string
	if fn.Storage != cast.StorageNone {
		parts = append(parts, fn.Storage.String())
	}
	if fn.Inline {
		parts = append(parts, "inline")
	}
	if len(parts) == 0 {
		return ""
	}
	return strings.Join(parts, " ") + " "
}

// hasSeparatePrototype reports whether fn has a prototype declaration
// elsewhere in the file.
func hasSeparatePrototype(m *muast.Manager, fn *cast.FunctionDecl) bool {
	for _, d := range m.TU.Decls {
		if fd, ok := d.(*cast.FunctionDecl); ok && fd != fn && fd.Name == fn.Name {
			return true
		}
	}
	return false
}

func simpleUninliner(m *muast.Manager) bool {
	type inst struct {
		s  cast.Stmt
		fn *cast.FunctionDecl
	}
	var cands []inst
	for _, fn := range m.Functions() {
		for _, cs := range muast.Find[*cast.CompoundStmt](m, fn.Body, nil) {
			for _, s := range cs.Stmts {
				// Outlined code may only touch globals: no local refs.
				if plainExprStmt(s) && !usesAnyLocal(s) {
					cands = append(cands, inst{s, fn})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	name := m.GenerateUniqueName("uninlined")
	body := m.GetSourceText(c.s)
	helper := fmt.Sprintf("static void %s(void) { %s }\n", name, body)
	if !m.InsertBefore(c.fn, helper) {
		return false
	}
	return m.ReplaceNode(c.s, name+"();")
}

// usesAnyLocal reports whether the subtree references any local variable
// or parameter.
func usesAnyLocal(n cast.Node) bool {
	found := false
	cast.Walk(n, func(c cast.Node) bool {
		if dr, ok := c.(*cast.DeclRefExpr); ok {
			switch d := dr.Ref.(type) {
			case *cast.VarDecl:
				if !d.IsGlobal {
					found = true
				}
			case *cast.ParmVarDecl:
				found = true
			}
		}
		return !found
	})
	return found
}

func inlineFunctionCall(m *muast.Manager) bool {
	// Callees whose body is exactly "return <constant>;".
	constOf := map[string]string{}
	for _, fn := range m.Functions() {
		if len(fn.Body.Stmts) != 1 {
			continue
		}
		rs, ok := fn.Body.Stmts[0].(*cast.ReturnStmt)
		if !ok || rs.Value == nil {
			continue
		}
		if v, ok := cast.ConstIntValue(rs.Value); ok {
			constOf[fn.Name] = fmt.Sprintf("%d", v)
		}
	}
	pm := m.Parents()
	cands := inBodies(m, func(ce *cast.CallExpr) bool {
		if ce.Callee == nil {
			return false
		}
		if _, ok := constOf[ce.Callee.Name]; !ok || parentRequiresLvalue(pm, ce) {
			return false
		}
		// Arguments must be side-effect free to drop.
		for _, a := range ce.Args {
			if !m.IsSideEffectFree(a) {
				return false
			}
		}
		return true
	})
	if len(cands) == 0 {
		return false
	}
	ce := muast.RandElement(m, cands)
	return m.ReplaceNode(ce, "("+constOf[ce.Callee.Name]+")")
}

func addFunctionParameter(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Name == "main" || fn.Variadic || hasSeparatePrototype(m, fn) {
			continue
		}
		cands = append(cands, fn)
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	pname := m.GenerateUniqueName("extra")
	// Locate the parameter list parens after the name.
	open := m.FindStrLocFrom(fn.NameRange.End, "(")
	if open < 0 {
		return false
	}
	if len(fn.Params) == 0 {
		// "(void)" or "()" — replace contents.
		closeIdx := m.FindStrLocFrom(open, ")")
		if closeIdx < 0 {
			return false
		}
		if !m.ReplaceRange(cast.SourceRange{Begin: open + 1, End: closeIdx},
			"int "+pname) {
			return false
		}
	} else {
		last := fn.Params[len(fn.Params)-1]
		if !m.InsertAfter(last, ", int "+pname) {
			return false
		}
	}
	for _, call := range m.CallsTo(fn) {
		if len(call.Args) == 0 {
			// Insert before the closing paren.
			end := call.Range().End - 1
			if !m.ReplaceRange(cast.SourceRange{Begin: end, End: end}, "0") {
				return false
			}
		} else {
			if !m.InsertAfter(call.Args[len(call.Args)-1], ", 0") {
				return false
			}
		}
	}
	return true
}

func removeFunctionParameter(m *muast.Manager) bool {
	type inst struct {
		fn *cast.FunctionDecl
		pv *cast.ParmVarDecl
	}
	var cands []inst
	for _, fn := range m.Functions() {
		if fn.Variadic || hasSeparatePrototype(m, fn) {
			continue
		}
		for _, pv := range fn.Params {
			if len(m.UsesOf(pv)) == 0 {
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
	for _, call := range m.CallsTo(c.fn) {
		if c.pv.Index < len(call.Args) {
			if !m.RemoveArgFromExpr(call, c.pv.Index) {
				return false
			}
		}
	}
	return true
}

func reorderFunctionParameters(m *muast.Manager) bool {
	type inst struct {
		fn   *cast.FunctionDecl
		i, j int
	}
	var cands []inst
	for _, fn := range m.Functions() {
		if fn.Variadic || hasSeparatePrototype(m, fn) {
			continue
		}
		for i := 0; i < len(fn.Params); i++ {
			for j := i + 1; j < len(fn.Params); j++ {
				if fn.Params[i].Name != "" && fn.Params[j].Name != "" &&
					sameScalarType(fn.Params[i].Ty, fn.Params[j].Ty) {
					cands = append(cands, inst{fn, i, j})
				}
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	pi, pj := c.fn.Params[c.i], c.fn.Params[c.j]
	ti, tj := m.GetSourceText(pi), m.GetSourceText(pj)
	if !m.ReplaceNode(pi, tj) || !m.ReplaceNode(pj, ti) {
		return false
	}
	for _, call := range m.CallsTo(c.fn) {
		if c.j >= len(call.Args) {
			continue
		}
		ai, aj := call.Args[c.i], call.Args[c.j]
		tai, taj := m.GetSourceText(ai), m.GetSourceText(aj)
		if !m.ReplaceNode(ai, taj) || !m.ReplaceNode(aj, tai) {
			return false
		}
	}
	return true
}

func duplicateFunction(m *muast.Manager) bool {
	type inst struct {
		fn   *cast.FunctionDecl
		call *cast.CallExpr
	}
	var cands []inst
	for _, fn := range m.Functions() {
		if fn.Name == "main" {
			continue
		}
		for _, call := range m.CallsTo(fn) {
			cands = append(cands, inst{fn, call})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	fresh := m.GenerateUniqueName(c.fn.Name + "_copy")
	text := m.GetSourceText(c.fn)
	// Rename inside the copied text: replace the first occurrence of the
	// original name (the definition header).
	idx := strings.Index(text, c.fn.Name)
	if idx < 0 {
		return false
	}
	copyText := text[:idx] + fresh + text[idx+len(c.fn.Name):]
	if !m.InsertBefore(c.fn, "static "+strings.TrimPrefix(copyText, "static ")+"\n") {
		return false
	}
	// Retarget one call.
	if dr, ok := c.call.Fn.(*cast.DeclRefExpr); ok {
		return m.ReplaceNode(dr, fresh)
	}
	return false
}

func renameFunction(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Name != "main" && !hasSeparatePrototype(m, fn) {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	fresh := m.GenerateUniqueName(fn.Name)
	if !m.ReplaceRange(fn.NameRange, fresh) {
		return false
	}
	for _, u := range m.UsesOf(fn) {
		if !m.ReplaceNode(u, fresh) {
			return false
		}
	}
	return true
}

func makeFunctionStatic(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Storage == cast.StorageNone && fn.Name != "main" &&
			!hasSeparatePrototype(m, fn) {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return false
	}
	return m.InsertBefore(muast.RandElement(m, cands), "static ")
}

func wrapFunctionBody(m *muast.Manager) bool {
	fns := m.Functions()
	if len(fns) == 0 {
		return false
	}
	fn := muast.RandElement(m, fns)
	return m.InsertBefore(fn.Body, "{ ") && m.InsertAfter(fn.Body, " }")
}

func callViaPointerDeref(m *muast.Manager) bool {
	cands := inBodies(m, func(ce *cast.CallExpr) bool {
		_, isRef := ce.Fn.(*cast.DeclRefExpr)
		return ce.Callee != nil && isRef
	})
	if len(cands) == 0 {
		return false
	}
	ce := muast.RandElement(m, cands)
	return m.ReplaceNode(ce.Fn, "(*"+m.GetSourceText(ce.Fn)+")")
}

func changeReturnExpr(m *muast.Manager) bool {
	var cands []*cast.ReturnStmt
	for _, fn := range m.Functions() {
		if !fn.Ret.IsInteger() {
			continue
		}
		for _, rs := range m.ReturnsOf(fn) {
			if rs.Value != nil && rs.Value.Type().IsInteger() {
				cands = append(cands, rs)
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	rs := muast.RandElement(m, cands)
	txt := m.GetSourceText(rs.Value)
	forms := []string{"(%s) + 1", "-(%s)", "~(%s)", "(%s) ^ 1"}
	return m.ReplaceNode(rs.Value, fmt.Sprintf(muast.RandElement(m, forms), txt))
}

func addVoidWrapperFunction(m *muast.Manager) bool {
	type inst struct {
		fn   *cast.FunctionDecl
		call *cast.CallExpr
	}
	var cands []inst
	for _, fn := range m.Functions() {
		if fn.Name == "main" || fn.Variadic {
			continue
		}
		for _, call := range m.CallsTo(fn) {
			// Wrapper forwards arguments; keep it simple with scalars.
			ok := true
			for _, pv := range fn.Params {
				if !simpleScalar(pv.Ty) && !pv.Ty.IsPointer() {
					ok = false
				}
			}
			if ok {
				cands = append(cands, inst{fn, call})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	wrapper := m.GenerateUniqueName(c.fn.Name + "_wrap")
	var params, args []string
	for i, pv := range c.fn.Params {
		nm := fmt.Sprintf("a%d", i)
		params = append(params, m.FormatAsDecl(pv.Ty, nm))
		args = append(args, nm)
	}
	if len(params) == 0 {
		params = []string{"void"}
	}
	bodyCall := fmt.Sprintf("%s(%s)", c.fn.Name, strings.Join(args, ", "))
	var def string
	if c.fn.Ret.IsVoid() {
		def = fmt.Sprintf("static void %s(%s) { %s; }\n",
			wrapper, strings.Join(params, ", "), bodyCall)
	} else {
		def = fmt.Sprintf("static %s(%s) { return %s; }\n",
			m.FormatAsDecl(c.fn.Ret, wrapper), strings.Join(params, ", "), bodyCall)
	}
	// The wrapper must come after the callee's definition to see it.
	if !m.InsertAfter(c.fn, "\n"+def) {
		return false
	}
	if dr, ok := c.call.Fn.(*cast.DeclRefExpr); ok {
		// Only retarget calls that appear after the wrapper definition.
		if dr.Range().Begin > c.fn.Range().End {
			return m.ReplaceNode(dr, wrapper)
		}
	}
	return true
}

func swapFunctionBodies(m *muast.Manager) bool {
	fns := m.Functions()
	type pair struct{ a, b *cast.FunctionDecl }
	var cands []pair
	for i := 0; i < len(fns); i++ {
		for j := i + 1; j < len(fns); j++ {
			if sameSignature(fns[i], fns[j]) &&
				!bodyRefersToParamsMismatch(m, fns[i], fns[j]) &&
				!bodyRefersToParamsMismatch(m, fns[j], fns[i]) {
				cands = append(cands, pair{fns[i], fns[j]})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	p := muast.RandElement(m, cands)
	ta, tb := m.GetSourceText(p.a.Body), m.GetSourceText(p.b.Body)
	return m.ReplaceNode(p.a.Body, tb) && m.ReplaceNode(p.b.Body, ta)
}

func sameSignature(a, b *cast.FunctionDecl) bool {
	if !cast.SameType(a.Ret, b.Ret) || len(a.Params) != len(b.Params) ||
		a.Variadic != b.Variadic {
		return false
	}
	for i := range a.Params {
		if !cast.SameType(a.Params[i].Ty, b.Params[i].Ty) ||
			a.Params[i].Name != b.Params[i].Name {
			return false
		}
	}
	return true
}

// bodyRefersToParamsMismatch reports whether a's body references names
// that b's scope would not provide (locals are self-contained; only
// parameter names matter, and sameSignature already matches them — this
// catches references to a's own name for recursion).
func bodyRefersToParamsMismatch(m *muast.Manager, a, b *cast.FunctionDecl) bool {
	found := false
	cast.Walk(a.Body, func(n cast.Node) bool {
		if dr, ok := n.(*cast.DeclRefExpr); ok && dr.Name == a.Name {
			found = true
		}
		return !found
	})
	return found
}

func addPrototypeBeforeUse(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Name == "main" || hasSeparatePrototype(m, fn) || fn.Variadic {
			continue
		}
		cands = append(cands, fn)
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	var params []string
	for _, pv := range fn.Params {
		params = append(params, m.FormatAsDecl(pv.Ty, pv.Name))
	}
	if len(params) == 0 {
		params = []string{"void"}
	}
	proto := fmt.Sprintf("%s%s(%s);\n", retTypePrefix(fn),
		m.FormatAsDecl(fn.Ret, fn.Name), strings.Join(params, ", "))
	if len(m.TU.Decls) == 0 {
		return false
	}
	return m.InsertBefore(m.TU.Decls[0], proto)
}

func makeParamsConst(m *muast.Manager) bool {
	pm := m.Parents()
	type inst struct{ pv *cast.ParmVarDecl }
	var cands []inst
	for _, fn := range m.Functions() {
		if hasSeparatePrototype(m, fn) {
			continue
		}
		for _, pv := range fn.Params {
			if pv.Name == "" || !simpleScalar(pv.Ty) || pv.Ty.Q&cast.QualConst != 0 {
				continue
			}
			written := false
			for _, u := range m.UsesOf(pv) {
				if parentRequiresLvalue(pm, u) {
					written = true
					break
				}
			}
			if !written {
				cands = append(cands, inst{pv})
			}
		}
	}
	if len(cands) == 0 {
		return false
	}
	return m.InsertBefore(muast.RandElement(m, cands).pv, "const ")
}

func returnConstantFunction(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Name != "main" && simpleScalar(fn.Ret) && !fn.Ret.IsVoid() {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	return m.ReplaceNode(fn.Body,
		fmt.Sprintf("{ return %s; }", m.DefaultValueExpr(fn.Ret)))
}

func extractExprToHelper(m *muast.Manager) bool {
	pm := m.Parents()
	type inst struct {
		e  cast.Expr
		fn *cast.FunctionDecl
	}
	var cands []inst
	for _, e := range mutableIntExprs(m) {
		if usesAnyLocal(e) {
			continue
		}
		if _, isLit := e.(*cast.IntegerLiteral); isLit {
			continue // extracting bare literals is noise
		}
		if inConstantContext(pm, e) {
			continue
		}
		fn := pm.EnclosingFunction(e)
		if fn != nil {
			cands = append(cands, inst{e, fn})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	name := m.GenerateUniqueName("helper")
	ty := c.e.Type().Unqualified()
	helper := fmt.Sprintf("static %s(void) { return %s; }\n",
		m.FormatAsDecl(ty, name), m.GetSourceText(c.e))
	if !m.InsertBefore(c.fn, helper) {
		return false
	}
	return m.ReplaceNode(c.e, name+"()")
}

func addInlineSpecifier(m *muast.Manager) bool {
	var cands []*cast.FunctionDecl
	for _, fn := range m.Functions() {
		// Plain "inline" without static has tricky C99 linkage semantics;
		// restrict to static functions where it is always safe.
		if fn.Storage == cast.StorageStatic && !fn.Inline {
			cands = append(cands, fn)
		}
	}
	if len(cands) == 0 {
		return false
	}
	fn := muast.RandElement(m, cands)
	// Insert after "static ".
	loc := m.FindStrLocFrom(fn.Range().Begin, "static")
	if loc < 0 {
		return false
	}
	return m.ReplaceRange(cast.SourceRange{Begin: loc + 6, End: loc + 6}, " inline")
}
