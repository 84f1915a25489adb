package cast

import (
	"fmt"
	"strings"
	"sync"
)

// SemaError is a single semantic diagnostic.
type SemaError struct {
	Offset int // byte offset into the source
	Msg    string
}

func (e SemaError) Error() string { return fmt.Sprintf("@%d: %s", e.Offset, e.Msg) }

// SemaErrors aggregates the diagnostics of one Check run.
type SemaErrors []SemaError

func (es SemaErrors) Error() string {
	var parts []string
	for i, e := range es {
		if i == 8 {
			parts = append(parts, fmt.Sprintf("... and %d more", len(es)-8))
			break
		}
		parts = append(parts, e.Error())
	}
	return strings.Join(parts, "; ")
}

// maxSemaErrors bounds diagnostics per run.
const maxSemaErrors = 40

// sema performs name resolution and type checking. Instances are pooled;
// per-run state is reset in Check and derived allocations (implicit
// decls, decayed pointer types, function types) come from the checked
// unit's arena when it has one.
type sema struct {
	tu *TranslationUnit
	// arena is tu's arena (nil for hand-built units); sema draws derived
	// types and implicit declarations from it so a pooled parse+check
	// cycle stays allocation-free.
	arena  *Arena
	scopes []map[string]Decl
	errs   SemaErrors
	// curFn is the function currently being checked.
	curFn *FunctionDecl
	// labels declared / used per function.
	labels     map[string]bool
	labelUses  map[string]int
	switchDep  int
	loopDep    int
	implicitly map[string]*FunctionDecl
	// probeOnly suppresses diagnostic formatting and only counts errors
	// (CheckBinopTypes/CheckAssignmentTypes run thousands of probes per
	// mutation step; formatting them would dominate the hot loop).
	probeOnly bool
	errCount  int
}

var semaPool = sync.Pool{New: func() any { return &sema{} }}

// Check resolves names and types in tu and verifies the program against a
// practical subset of C's semantic rules — the rules a mutated program is
// most likely to break (undeclared names, void-result uses, bad operand
// types, arity errors, const violations, missing labels). It returns nil
// when the program is semantically valid, or a SemaErrors value. It
// first builds tu's node table (BuildTable), which the checker's own
// scans read.
func Check(tu *TranslationUnit) error {
	tu.BuildTable()
	s := semaPool.Get().(*sema)
	s.tu = tu
	s.arena = tu.arena
	s.scopes = pushScopeMap(s.scopes[:0])
	if s.implicitly == nil {
		s.implicitly = map[string]*FunctionDecl{}
	} else {
		clear(s.implicitly)
	}
	s.errs = s.errs[:0]
	s.switchDep, s.loopDep, s.errCount = 0, 0, 0
	for _, d := range tu.Decls {
		s.checkTopDecl(d)
	}
	var err error
	if len(s.errs) > 0 {
		// Copy on return: the backing array goes back to the pool.
		out := make(SemaErrors, len(s.errs))
		copy(out, s.errs)
		err = out
	}
	s.tu, s.arena, s.curFn = nil, nil, nil
	semaPool.Put(s)
	return err
}

// builtinProtos gives the libc functions that seeds and mutants may call
// without declaring.
var builtinProtos = []struct {
	name     string
	ret      QualType
	params   []QualType
	variadic bool
}{
	{"printf", IntTy, []QualType{PointerTo(CharTy)}, true},
	{"sprintf", IntTy, []QualType{PointerTo(CharTy), PointerTo(CharTy)}, true},
	{"snprintf", IntTy, []QualType{PointerTo(CharTy), ULongTy, PointerTo(CharTy)}, true},
	{"fprintf", IntTy, []QualType{PointerTo(VoidTy), PointerTo(CharTy)}, true},
	{"scanf", IntTy, []QualType{PointerTo(CharTy)}, true},
	{"memset", PointerTo(VoidTy), []QualType{PointerTo(VoidTy), IntTy, ULongTy}, false},
	{"memcpy", PointerTo(VoidTy), []QualType{PointerTo(VoidTy), PointerTo(VoidTy), ULongTy}, false},
	{"memcmp", IntTy, []QualType{PointerTo(VoidTy), PointerTo(VoidTy), ULongTy}, false},
	{"strlen", ULongTy, []QualType{PointerTo(CharTy)}, false},
	{"strcpy", PointerTo(CharTy), []QualType{PointerTo(CharTy), PointerTo(CharTy)}, false},
	{"strcmp", IntTy, []QualType{PointerTo(CharTy), PointerTo(CharTy)}, false},
	{"strcat", PointerTo(CharTy), []QualType{PointerTo(CharTy), PointerTo(CharTy)}, false},
	{"abort", VoidTy, nil, false},
	{"exit", VoidTy, []QualType{IntTy}, false},
	{"malloc", PointerTo(VoidTy), []QualType{ULongTy}, false},
	{"calloc", PointerTo(VoidTy), []QualType{ULongTy, ULongTy}, false},
	{"free", VoidTy, []QualType{PointerTo(VoidTy)}, false},
	{"rand", IntTy, nil, false},
	{"srand", VoidTy, []QualType{UIntTy}, false},
	{"abs", IntTy, []QualType{IntTy}, false},
	{"labs", LongTy, []QualType{LongTy}, false},
	{"putchar", IntTy, []QualType{IntTy}, false},
	{"puts", IntTy, []QualType{PointerTo(CharTy)}, false},
	{"atoi", IntTy, []QualType{PointerTo(CharTy)}, false},
	{"fabs", DoubleTy, []QualType{DoubleTy}, false},
	{"sqrt", DoubleTy, []QualType{DoubleTy}, false},
	{"pow", DoubleTy, []QualType{DoubleTy}, false},
}

// builtinScope holds the shared builtin declarations, consulted by lookup
// as a read-only fallback below every real scope. Built once at init —
// per-Check re-declaration was the single largest allocation site in the
// mutation hot loop. The decls (and their precomputed cachedType) are
// shared across goroutines and must never be mutated.
var builtinScope = func() map[string]Decl {
	m := make(map[string]Decl, len(builtinProtos))
	for _, b := range builtinProtos {
		fd := &FunctionDecl{Name: b.name, Ret: b.ret, Variadic: b.variadic}
		ft := &FuncType{Ret: b.ret, Variadic: b.variadic}
		for i, pt := range b.params {
			fd.Params = append(fd.Params, &ParmVarDecl{Ty: pt, Index: i})
			ft.Params = append(ft.Params, pt)
		}
		fd.cachedType = ft
		m[b.name] = fd
	}
	return m
}()

func (s *sema) errorf(n Node, format string, args ...any) {
	s.errCount++
	if s.probeOnly || len(s.errs) >= maxSemaErrors {
		return
	}
	off := 0
	if n != nil {
		off = n.Range().Begin
	}
	s.errs = append(s.errs, SemaError{Offset: off,
		Msg: fmt.Sprintf(format, args...)})
}

func (s *sema) push() { s.scopes = pushScopeMap(s.scopes) }
func (s *sema) pop()  { s.scopes = s.scopes[:len(s.scopes)-1] }

func (s *sema) declare(name string, d Decl) {
	if name == "" {
		return
	}
	s.scopes[len(s.scopes)-1][name] = d
}

func (s *sema) lookup(name string) (Decl, bool) {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if d, ok := s.scopes[i][name]; ok {
			return d, true
		}
	}
	if d, ok := builtinScope[name]; ok {
		return d, true
	}
	return nil, false
}

// decay applies array/function-to-pointer decay, drawing the pointer type
// from the arena (deduped) when one is available.
func (s *sema) decay(qt QualType) QualType {
	if s.arena != nil {
		return s.arena.decay(qt)
	}
	return qt.Decay()
}

// ptrTo builds a pointer type, arena-owned when possible.
func (s *sema) ptrTo(t QualType) QualType {
	if s.arena != nil {
		return QualType{T: s.arena.pointerTo(t)}
	}
	return PointerTo(t)
}

func (s *sema) checkTopDecl(d Decl) {
	switch x := d.(type) {
	case *FunctionDecl:
		// Allow redeclaration: a prototype followed by a definition.
		if prev, ok := s.scopes[0][x.Name]; ok {
			if pf, ok := prev.(*FunctionDecl); ok && pf.IsDefinition() && x.IsDefinition() {
				s.errorf(x, "redefinition of function %q", x.Name)
			}
		}
		s.declare(x.Name, x)
		if x.IsDefinition() {
			s.checkFunctionBody(x)
		}
	case *VarDecl:
		s.declare(x.Name, x)
		if x.Init != nil {
			s.checkExpr(x.Init)
			s.checkInitCompat(x, x.Ty, x.Init)
		}
	case *RecordDecl:
		if x.Name != "" {
			s.declare("struct "+x.Name, x)
		}
	case *EnumDecl:
		for _, c := range x.Constants {
			s.declare(c.Name, c)
			if c.Value != nil {
				s.checkExpr(c.Value)
			}
		}
	case *TypedefDecl:
		// Types were resolved at parse time.
	}
}

func (s *sema) checkFunctionBody(fd *FunctionDecl) {
	s.curFn = fd
	if s.labels == nil {
		s.labels = map[string]bool{}
		s.labelUses = map[string]int{}
	} else {
		clear(s.labels)
		clear(s.labelUses)
	}
	s.push()
	for _, pv := range fd.Params {
		s.declare(pv.Name, pv)
	}
	// Pre-scan labels: goto may jump forward.
	for _, n := range s.tu.Subtree(fd.Body) {
		if ls, ok := n.(*LabelStmt); ok {
			s.labels[ls.Name] = true
		}
	}
	s.checkStmt(fd.Body)
	for lbl, n := range s.labelUses {
		if !s.labels[lbl] && n > 0 {
			s.errorf(fd, "use of undeclared label %q in function %q", lbl, fd.Name)
		}
	}
	s.pop()
	s.curFn = nil
}

func (s *sema) checkStmt(st Stmt) {
	if st == nil {
		return
	}
	switch x := st.(type) {
	case *CompoundStmt:
		s.push()
		for _, inner := range x.Stmts {
			s.checkStmt(inner)
		}
		s.pop()
	case *DeclStmt:
		for _, d := range x.Decls {
			switch vd := d.(type) {
			case *VarDecl:
				if vd.Init != nil {
					s.checkExpr(vd.Init)
					s.checkInitCompat(vd, vd.Ty, vd.Init)
				}
				s.declare(vd.Name, vd)
			case *EnumDecl:
				for _, c := range vd.Constants {
					s.declare(c.Name, c)
				}
			case *FunctionDecl:
				s.declare(vd.Name, vd)
			}
		}
	case *ExprStmt:
		s.checkExpr(x.X)
	case *IfStmt:
		s.checkCondExpr(x.Cond)
		s.checkStmt(x.Then)
		s.checkStmt(x.Else)
	case *WhileStmt:
		s.checkCondExpr(x.Cond)
		s.loopDep++
		s.checkStmt(x.Body)
		s.loopDep--
	case *DoStmt:
		s.loopDep++
		s.checkStmt(x.Body)
		s.loopDep--
		s.checkCondExpr(x.Cond)
	case *ForStmt:
		s.push()
		s.checkStmt(x.Init)
		if x.Cond != nil {
			s.checkCondExpr(x.Cond)
		}
		if x.Post != nil {
			s.checkExpr(x.Post)
		}
		s.loopDep++
		s.checkStmt(x.Body)
		s.loopDep--
		s.pop()
	case *SwitchStmt:
		s.checkExpr(x.Cond)
		if t := x.Cond.Type(); !t.IsNil() && !t.IsInteger() {
			s.errorf(x.Cond, "switch condition has non-integer type %s", t.CString())
		}
		s.switchDep++
		s.checkStmt(x.Body)
		s.switchDep--
	case *CaseStmt:
		if s.switchDep == 0 {
			s.errorf(x, "'case' label not within a switch statement")
		}
		s.checkExpr(x.Value)
		s.checkStmt(x.Body)
	case *DefaultStmt:
		if s.switchDep == 0 {
			s.errorf(x, "'default' label not within a switch statement")
		}
		s.checkStmt(x.Body)
	case *BreakStmt:
		if s.loopDep == 0 && s.switchDep == 0 {
			s.errorf(x, "'break' outside of loop or switch")
		}
	case *ContinueStmt:
		if s.loopDep == 0 {
			s.errorf(x, "'continue' outside of loop")
		}
	case *ReturnStmt:
		if x.Value != nil {
			s.checkExpr(x.Value)
			if s.curFn != nil && s.curFn.Ret.IsVoid() {
				s.errorf(x, "void function %q should not return a value", s.curFn.Name)
			}
			if vt := x.Value.Type(); !vt.IsNil() && vt.IsVoid() {
				s.errorf(x, "returning void expression from function %q", s.curFn.Name)
			}
		}
	case *GotoStmt:
		s.labelUses[x.Label]++
	case *LabelStmt:
		s.checkStmt(x.Body)
	case *NullStmt:
	}
}

// checkCondExpr checks an expression used in boolean context.
func (s *sema) checkCondExpr(e Expr) {
	s.checkExpr(e)
	if t := e.Type(); !t.IsNil() && !s.decay(t).IsScalar() {
		s.errorf(e, "condition has non-scalar type %s", t.CString())
	}
}

// checkInitCompat verifies an initializer fits the declared type.
func (s *sema) checkInitCompat(at Node, ty QualType, init Expr) {
	if il, ok := init.(*InitListExpr); ok {
		// Brace init: element-check only for scalar over-nesting.
		if ty.IsArray() || ty.IsRecord() {
			return
		}
		if len(il.Inits) > 1 {
			s.errorf(at, "excess elements in scalar initializer")
		}
		return
	}
	// A char array may be initialized from a string literal.
	if _, isStr := init.(*StringLiteral); isStr && ty.IsArray() {
		if et, ok := ty.PointeeType(); ok {
			if k, kok := et.Basic(); kok && (k == Char || k == SChar || k == UChar) {
				return
			}
		}
	}
	it := init.Type()
	if it.IsNil() {
		return
	}
	if !s.assignCompatible(ty, it) {
		s.errorf(at, "initializing %s with an expression of incompatible type %s",
			ty.CString(), it.CString())
	}
}

// assignCompatible implements C's (permissive) assignment compatibility.
func (s *sema) assignCompatible(to, from QualType) bool {
	if to.IsNil() || from.IsNil() {
		return true
	}
	from = s.decay(from)
	switch {
	case from.IsVoid():
		return false
	case to.IsArithmetic() && from.IsArithmetic():
		return true
	case to.IsPointer() && from.IsPointer():
		return true // C permits with a warning; allow
	case to.IsPointer() && from.IsInteger():
		return true // integer-to-pointer: warning in C
	case to.IsInteger() && from.IsPointer():
		return true
	case to.IsRecord() && from.IsRecord():
		return SameType(to, from)
	case to.IsArray():
		return false // arrays are not assignable
	}
	return to.IsArithmetic() == from.IsArithmetic() && SameType(to, from)
}

// isLvalue reports whether e designates an object.
func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *DeclRefExpr:
		_, isFn := x.Ref.(*FunctionDecl)
		_, isEC := x.Ref.(*EnumConstantDecl)
		return !isFn && !isEC
	case *UnaryOperator:
		return x.Op == UnDeref
	case *ArraySubscriptExpr, *MemberExpr, *StringLiteral, *CompoundLiteralExpr:
		return true
	case *ParenExpr:
		return isLvalue(x.X)
	}
	return false
}

// isConstQualified reports whether assigning to e violates const.
func isConstQualified(e Expr) bool {
	switch x := e.(type) {
	case *DeclRefExpr:
		switch d := x.Ref.(type) {
		case *VarDecl:
			return d.Ty.Q&QualConst != 0
		case *ParmVarDecl:
			return d.Ty.Q&QualConst != 0
		}
	case *ParenExpr:
		return isConstQualified(x.X)
	case *UnaryOperator:
		if x.Op == UnDeref {
			if pt, ok := x.X.Type().Decay().PointeeType(); ok {
				return pt.Q&QualConst != 0
			}
		}
	case *ArraySubscriptExpr:
		if pt, ok := x.Base.Type().Decay().PointeeType(); ok {
			return pt.Q&QualConst != 0
		}
	case *MemberExpr:
		if x.FieldDecl != nil && x.FieldDecl.Ty.Q&QualConst != 0 {
			return true
		}
		return isConstQualified(x.Base)
	}
	return false
}

// intLitType classifies an integer literal's type from its suffix without
// allocating. The lexer guarantees u/U/l/L appear only in the trailing
// suffix run, so scanning that run matches the historical
// lowercase-and-Contains logic byte for byte.
func intLitType(text string) QualType {
	i := len(text)
	for i > 0 {
		switch text[i-1] {
		case 'u', 'U', 'l', 'L':
			i--
			continue
		}
		break
	}
	suf := text[i:]
	lc := func(j int) byte {
		c := suf[j]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		return c
	}
	contains := func(pat string) bool {
		for s0 := 0; s0 <= len(suf)-len(pat); s0++ {
			ok := true
			for k := 0; k < len(pat); k++ {
				if lc(s0+k) != pat[k] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	switch {
	case contains("ull") || (contains("u") && contains("ll")):
		return ULongLongTy
	case contains("ll"):
		return LongLongTy
	case contains("ul"):
		return ULongTy
	case len(suf) > 0 && lc(len(suf)-1) == 'l':
		return LongTy
	case len(suf) > 0 && lc(len(suf)-1) == 'u':
		return UIntTy
	}
	return IntTy
}

func (s *sema) checkExpr(e Expr) QualType {
	if e == nil {
		return QualType{}
	}
	switch x := e.(type) {
	case *IntegerLiteral:
		ty := intLitType(x.Text)
		x.SetType(ty)
		return ty
	case *FloatingLiteral:
		ty := DoubleTy
		if n := len(x.Text); n > 0 && (x.Text[n-1] == 'f' || x.Text[n-1] == 'F') {
			ty = FloatTy
		}
		x.SetType(ty)
		return ty
	case *CharLiteral:
		x.SetType(IntTy) // char literals have type int in C
		return IntTy
	case *StringLiteral:
		var ty QualType
		if s.arena != nil {
			at := s.arena.arrayTypes.get()
			at.Elem, at.Size = CharTy, int64(len(x.Value))+1
			ty = QualType{T: at}
		} else {
			ty = ArrayOf(CharTy, int64(len(x.Value))+1)
		}
		x.SetType(ty)
		return ty
	case *DeclRefExpr:
		return s.checkDeclRef(x)
	case *ParenExpr:
		t := s.checkExpr(x.X)
		x.SetType(t)
		return t
	case *UnaryOperator:
		return s.checkUnary(x)
	case *BinaryOperator:
		return s.checkBinary(x)
	case *CallExpr:
		return s.checkCall(x)
	case *ArraySubscriptExpr:
		return s.checkSubscript(x)
	case *MemberExpr:
		return s.checkMember(x)
	case *CastExpr:
		s.checkExpr(x.X)
		if x.To.IsRecord() && !x.X.Type().IsNil() && !SameType(x.To, x.X.Type()) {
			s.errorf(x, "conversion to non-scalar type %s requested", x.To.CString())
		}
		x.SetType(x.To)
		return x.To
	case *ConditionalExpr:
		s.checkCondExpr(x.Cond)
		t1 := s.checkExpr(x.Then)
		t2 := s.checkExpr(x.Else)
		var t QualType
		switch {
		case t1.IsArithmetic() && t2.IsArithmetic():
			t = UsualArithmeticConversion(t1, t2)
		case !t1.IsNil():
			t = s.decay(t1)
		default:
			t = s.decay(t2)
		}
		x.SetType(t)
		return t
	case *SizeofExpr:
		if x.X != nil {
			s.checkExpr(x.X)
		}
		x.SetType(ULongTy)
		return ULongTy
	case *InitListExpr:
		for _, in := range x.Inits {
			s.checkExpr(in)
		}
		return QualType{}
	case *CompoundLiteralExpr:
		s.checkExpr(x.Init)
		if k, ok := x.To.Basic(); ok && k != Void {
			// Scalar compound literal must have exactly one scalar init.
			if len(x.Init.Inits) > 0 {
				if _, isList := x.Init.Inits[0].(*InitListExpr); isList {
					s.errorf(x, "braces around scalar initializer of type %s", x.To.CString())
				}
			}
			if len(x.Init.Inits) > 1 {
				s.errorf(x, "excess elements in scalar initializer")
			}
		}
		x.SetType(x.To)
		return x.To
	case *CommaExpr:
		s.checkExpr(x.LHS)
		t := s.checkExpr(x.RHS)
		x.SetType(t)
		return t
	}
	return QualType{}
}

func (s *sema) checkDeclRef(x *DeclRefExpr) QualType {
	d, ok := s.lookup(x.Name)
	if !ok {
		s.errorf(x, "use of undeclared identifier %q", x.Name)
		x.SetType(IntTy)
		return IntTy
	}
	x.Ref = d
	var t QualType
	switch dd := d.(type) {
	case *VarDecl:
		t = dd.Ty
	case *ParmVarDecl:
		t = dd.Ty
	case *FunctionDecl:
		ft := dd.cachedType
		if ft == nil {
			ft = s.funcTypeOf(dd)
			// Builtins precompute cachedType; everything else reaching
			// here is owned by the unit being checked (same lifetime as
			// the FuncType we just built), so memoizing is safe.
			dd.cachedType = ft
		}
		t = QualType{T: ft}
	case *EnumConstantDecl:
		t = IntTy
	}
	x.SetType(t)
	return t
}

// funcTypeOf derives the FuncType of a declaration, arena-owned when the
// checked unit has an arena.
func (s *sema) funcTypeOf(dd *FunctionDecl) *FuncType {
	if s.arena != nil {
		a := s.arena
		ft := a.funcTypes.get()
		ft.Ret, ft.Variadic = dd.Ret, dd.Variadic
		qmark := len(a.scQTs)
		for _, pv := range dd.Params {
			a.scQTs = append(a.scQTs, pv.Ty)
		}
		ft.Params = cutList(&a.qtLists, &a.scQTs, qmark)
		return ft
	}
	ft := &FuncType{Ret: dd.Ret, Variadic: dd.Variadic}
	for _, pv := range dd.Params {
		ft.Params = append(ft.Params, pv.Ty)
	}
	return ft
}

func (s *sema) checkUnary(x *UnaryOperator) QualType {
	t := s.checkExpr(x.X)
	var res QualType
	switch x.Op {
	case UnPlus, UnMinus:
		if !t.IsNil() && !s.decay(t).IsArithmetic() {
			s.errorf(x, "invalid argument type %s to unary %s", t.CString(), x.Op)
		}
		res = UsualArithmeticConversion(t, IntTy)
		if t.IsFloating() || t.IsComplex() {
			res = t.Unqualified()
		}
	case UnNot:
		if !t.IsNil() && !t.IsInteger() {
			s.errorf(x, "invalid argument type %s to unary ~", t.CString())
		}
		res = UsualArithmeticConversion(t, IntTy)
	case UnLNot:
		if !t.IsNil() && !s.decay(t).IsScalar() {
			s.errorf(x, "invalid argument type %s to unary !", t.CString())
		}
		res = IntTy
	case UnDeref:
		pt, ok := s.decay(t).PointeeType()
		if !ok {
			s.errorf(x, "indirection requires pointer operand (%s invalid)", t.CString())
			res = IntTy
		} else {
			res = pt
		}
	case UnAddr:
		if !isLvalue(x.X) {
			s.errorf(x, "cannot take the address of an rvalue")
		}
		res = s.ptrTo(t)
	case UnPreInc, UnPreDec, UnPostInc, UnPostDec:
		if !isLvalue(x.X) {
			s.errorf(x, "expression is not assignable (%s operand)", x.Op)
		} else if isConstQualified(x.X) {
			s.errorf(x, "cannot modify const-qualified operand")
		}
		if !t.IsNil() && !s.decay(t).IsScalar() {
			s.errorf(x, "cannot increment value of type %s", t.CString())
		}
		res = t.Unqualified()
	}
	x.SetType(res)
	return res
}

func (s *sema) checkBinary(x *BinaryOperator) QualType {
	lt := s.checkExpr(x.LHS)
	rt := s.checkExpr(x.RHS)
	res := s.binaryResultType(x, x.Op, lt, rt)
	x.SetType(res)
	return res
}

// binaryResultType validates operand types and returns the result type,
// reporting diagnostics on x. In probeOnly mode it counts diagnostics
// without formatting them.
func (s *sema) binaryResultType(x Node, op BinOp, lt, rt QualType) QualType {
	ltD, rtD := s.decay(lt), s.decay(rt)
	bad := func() QualType {
		if s.probeOnly {
			s.errCount++
		} else {
			s.errorf(x, "invalid operands to binary %s (%s and %s)",
				op, lt.CString(), rt.CString())
		}
		return IntTy
	}
	if lt.IsNil() || rt.IsNil() {
		return IntTy
	}
	if op.IsAssignment() {
		if lhs, ok := x.(*BinaryOperator); ok {
			if !isLvalue(lhs.LHS) {
				s.errorf(x, "expression is not assignable")
			} else if isConstQualified(lhs.LHS) {
				s.errorf(x, "cannot assign to const-qualified lvalue")
			}
			if lt.IsArray() {
				s.errorf(x, "array type %s is not assignable", lt.CString())
			}
		}
		if op == BinAssign {
			if !s.assignCompatible(lt, rt) {
				if s.probeOnly {
					s.errCount++
				} else {
					s.errorf(x, "assigning to %s from incompatible type %s",
						lt.CString(), rt.CString())
				}
			}
			return lt.Unqualified()
		}
		// Compound assignments require arithmetic (or ptr += int).
		under := compoundUnderlying(op)
		if ltD.IsPointer() && (under == BinAdd || under == BinSub) && rtD.IsInteger() {
			return lt.Unqualified()
		}
		if !ltD.IsArithmetic() || !rtD.IsArithmetic() {
			return bad()
		}
		if (under == BinRem || under.IsBitwise()) &&
			(!ltD.IsInteger() || !rtD.IsInteger()) {
			return bad()
		}
		return lt.Unqualified()
	}
	switch {
	case op == BinAdd:
		if ltD.IsPointer() && rtD.IsInteger() {
			return ltD
		}
		if rtD.IsPointer() && ltD.IsInteger() {
			return rtD
		}
		if ltD.IsArithmetic() && rtD.IsArithmetic() {
			return UsualArithmeticConversion(ltD, rtD)
		}
		return bad()
	case op == BinSub:
		if ltD.IsPointer() && rtD.IsInteger() {
			return ltD
		}
		if ltD.IsPointer() && rtD.IsPointer() {
			return LongTy // ptrdiff_t
		}
		if ltD.IsArithmetic() && rtD.IsArithmetic() {
			return UsualArithmeticConversion(ltD, rtD)
		}
		return bad()
	case op == BinMul || op == BinDiv:
		if ltD.IsArithmetic() && rtD.IsArithmetic() {
			return UsualArithmeticConversion(ltD, rtD)
		}
		return bad()
	case op == BinRem || op.IsBitwise():
		if ltD.IsInteger() && rtD.IsInteger() {
			return UsualArithmeticConversion(ltD, rtD)
		}
		return bad()
	case op.IsComparison():
		if (ltD.IsArithmetic() && rtD.IsArithmetic()) ||
			(ltD.IsPointer() && rtD.IsPointer()) ||
			(ltD.IsPointer() && rtD.IsInteger()) ||
			(ltD.IsInteger() && rtD.IsPointer()) {
			return IntTy
		}
		return bad()
	case op.IsLogical():
		if ltD.IsScalar() && rtD.IsScalar() {
			return IntTy
		}
		return bad()
	}
	return IntTy
}

// compoundUnderlying maps a compound assignment to its arithmetic op.
func compoundUnderlying(op BinOp) BinOp {
	switch op {
	case BinMulAssign:
		return BinMul
	case BinDivAssign:
		return BinDiv
	case BinRemAssign:
		return BinRem
	case BinAddAssign:
		return BinAdd
	case BinSubAssign:
		return BinSub
	case BinShlAssign:
		return BinShl
	case BinShrAssign:
		return BinShr
	case BinAndAssign:
		return BinAnd
	case BinXorAssign:
		return BinXor
	case BinOrAssign:
		return BinOr
	}
	return op
}

func (s *sema) checkCall(x *CallExpr) QualType {
	// Direct calls to possibly-undeclared functions get an implicit
	// declaration (C89 semantics, still common in compiler test suites).
	if dr, ok := x.Fn.(*DeclRefExpr); ok {
		if _, found := s.lookup(dr.Name); !found {
			fd := s.implicitly[dr.Name]
			if fd == nil {
				if s.arena != nil {
					fd = s.arena.functionDecls.get()
					fd.Name, fd.Ret, fd.Variadic = dr.Name, IntTy, true
				} else {
					fd = &FunctionDecl{Name: dr.Name, Ret: IntTy, Variadic: true}
				}
				s.implicitly[dr.Name] = fd
				s.scopes[0][dr.Name] = fd
			}
		}
	}
	ft := s.calleeType(x)
	for _, a := range x.Args {
		s.checkExpr(a)
		if at := a.Type(); !at.IsNil() && at.IsVoid() {
			s.errorf(a, "passing void expression as call argument")
		}
	}
	if ft == nil {
		x.SetType(IntTy)
		return IntTy
	}
	if !ft.Variadic && len(ft.Params) > 0 && len(x.Args) != len(ft.Params) {
		s.errorf(x, "call supplies %d arguments, callee expects %d",
			len(x.Args), len(ft.Params))
	}
	if !ft.Variadic {
		for i, a := range x.Args {
			if i >= len(ft.Params) {
				break
			}
			if at := a.Type(); !at.IsNil() && !s.assignCompatible(ft.Params[i], at) {
				s.errorf(a, "argument %d has incompatible type %s (expected %s)",
					i+1, at.CString(), ft.Params[i].CString())
			}
		}
	}
	x.SetType(ft.Ret)
	return ft.Ret
}

func (s *sema) calleeType(x *CallExpr) *FuncType {
	t := s.checkExpr(x.Fn)
	if dr, ok := x.Fn.(*DeclRefExpr); ok {
		if fd, ok := dr.Ref.(*FunctionDecl); ok {
			x.Callee = fd
		}
	}
	switch ct := t.Canonical().T.(type) {
	case *FuncType:
		return ct
	case *PointerType:
		if ft, ok := ct.Elem.Canonical().T.(*FuncType); ok {
			return ft
		}
	case nil:
		return nil
	}
	if !t.IsNil() {
		s.errorf(x, "called object type %s is not a function or function pointer",
			t.CString())
	}
	return nil
}

func (s *sema) checkSubscript(x *ArraySubscriptExpr) QualType {
	bt := s.checkExpr(x.Base)
	it := s.checkExpr(x.Index)
	// C allows the commuted form i[a]: one operand must be a pointer (or
	// array), the other an integer, in either order.
	if !s.decay(bt).IsPointer() && s.decay(it).IsPointer() {
		bt, it = it, bt
	}
	if !it.IsNil() && !s.decay(it).IsInteger() {
		s.errorf(x.Index, "array subscript is not an integer (%s)", it.CString())
	}
	pt, ok := s.decay(bt).PointeeType()
	if !ok {
		if !bt.IsNil() {
			s.errorf(x, "subscripted value %s is not an array or pointer", bt.CString())
		}
		x.SetType(IntTy)
		return IntTy
	}
	x.SetType(pt)
	return pt
}

func (s *sema) checkMember(x *MemberExpr) QualType {
	bt := s.checkExpr(x.Base)
	if bt.IsNil() {
		x.SetType(IntTy)
		return IntTy
	}
	target := bt
	if x.IsArrow {
		pt, ok := s.decay(bt).PointeeType()
		if !ok {
			s.errorf(x, "member reference type %s is not a pointer", bt.CString())
			x.SetType(IntTy)
			return IntTy
		}
		target = pt
	} else if bt.IsPointer() {
		s.errorf(x, "member reference type %s is a pointer; did you mean ->?",
			bt.CString())
		x.SetType(IntTy)
		return IntTy
	}
	rt, ok := target.Canonical().T.(*RecordType)
	if !ok {
		s.errorf(x, "member reference base type %s is not a structure or union",
			target.CString())
		x.SetType(IntTy)
		return IntTy
	}
	if !rt.Decl.Complete {
		s.errorf(x, "incomplete type %s used in member access", target.CString())
		x.SetType(IntTy)
		return IntTy
	}
	for _, f := range rt.Decl.Fields {
		if f.Name == x.Field {
			x.FieldDecl = f
			x.SetType(f.Ty)
			return f.Ty
		}
	}
	s.errorf(x, "no member named %q in %s", x.Field, target.CString())
	x.SetType(IntTy)
	return IntTy
}

// nullProbe anchors probe-mode diagnostics without allocating a node per
// probe. It is never mutated.
var nullProbe Node = &NullStmt{}

// CheckBinopTypes reports whether op may be applied to operands of the
// given types without a diagnostic. It is the engine behind the μAST
// checkBinop API. It allocates nothing (probe mode).
func CheckBinopTypes(op BinOp, lt, rt QualType) bool {
	var s sema
	s.probeOnly = true
	s.binaryResultType(nullProbe, op, lt, rt)
	return s.errCount == 0
}

// CheckAssignmentTypes reports whether a value of type from may be
// assigned to an lvalue of type to. It allocates nothing unless from is
// an array/function type (decay).
func CheckAssignmentTypes(to, from QualType) bool {
	var s sema
	s.probeOnly = true
	return s.assignCompatible(to, from) && !to.IsArray() && to.Q&QualConst == 0
}
