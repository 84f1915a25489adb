package cast

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// ParseError describes a syntax error.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: syntax error: %s", e.Line, e.Col, e.Msg)
}

// Parser turns a token stream into a TranslationUnit. Parsers are pooled
// and every node they produce comes from the Arena passed to
// ParseWithArena; the zero value is not usable directly — go through
// Parse/ParseWithArena.
type Parser struct {
	src  string
	toks []Token
	pos  int

	// arena owns every node, type and child list this parse creates.
	arena *Arena

	// scopes tracks typedef names (value true) so declarations can be
	// disambiguated from expressions, plus struct/union/enum tags. The
	// slices (and the maps retained in their spare capacity) are reused
	// across pooled parses.
	typedefScopes []map[string]QualType
	tagScopes     []map[string]Decl

	// scSuffixes is the mark/cut scratch stack for declarator suffixes
	// (see parseDeclSuffixes); reused across pooled parses.
	scSuffixes []declSuffix

	// lastParams holds the parameter declarations of the most recently
	// parsed function declarator, consumed by parseFunctionDefinition.
	lastParams []*ParmVarDecl

	err *ParseError
}

var parserPool = sync.Pool{New: func() any { return &Parser{} }}

// Parse lexes and parses src, returning the AST. Parsing is
// best-effort-strict: any syntax error aborts with a non-nil error.
// The returned unit owns a private arena that is never reset, so it is
// safe to retain and share (the parse cache depends on this).
func Parse(src string) (*TranslationUnit, error) {
	return ParseWithArena(src, NewArena())
}

// ParseWithArena parses src with every node allocated from a. Callers
// that reuse a across parses (the fuzzing hot loop) must Reset it first
// and must not retain any node from a previous parse; see Arena.
func ParseWithArena(src string, a *Arena) (*TranslationUnit, error) {
	bufp := tokenPool.Get().(*[]Token)
	toks, lexErr := lexInto(src, (*bufp)[:0])
	defer func() {
		*bufp = toks[:0]
		tokenPool.Put(bufp)
	}()
	if lexErr != nil {
		return nil, lexErr
	}
	return ParseTokens(src, toks, a)
}

// ParseTokens parses an already-lexed token stream (as produced by
// Lex/lexInto, terminated by a TokEOF token) over a caller-owned arena.
// Callers that lex once and reuse the tokens — the compile hot loop
// walks the stream for lexical coverage before parsing — avoid
// tokenizing the same source twice. toks is only read and may be reused
// by the caller after ParseTokens returns; src must be the exact text
// the tokens were lexed from (node source ranges index into it).
func ParseTokens(src string, toks []Token, a *Arena) (*TranslationUnit, error) {
	p := parserPool.Get().(*Parser)
	p.src, p.toks, p.pos, p.err = src, toks, 0, nil
	p.arena = a
	p.typedefScopes = p.typedefScopes[:0]
	p.tagScopes = p.tagScopes[:0]
	p.scSuffixes = p.scSuffixes[:0]
	p.pushScope()
	tu := p.parseTranslationUnit()
	err := p.err
	p.src, p.toks, p.arena, p.err, p.lastParams = "", nil, nil, nil, nil
	parserPool.Put(p)
	if err != nil {
		return nil, err
	}
	tu.Source = src
	tu.arena = a
	return tu, nil
}

// ParseAndCheck parses src and runs semantic analysis.
func ParseAndCheck(src string) (*TranslationUnit, error) {
	tu, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(tu); err != nil {
		return nil, err
	}
	return tu, nil
}

// ParseAndCheckArena is ParseAndCheck over a caller-owned arena; the
// checker draws its own allocations (implicit decls, derived types) from
// the same arena.
func ParseAndCheckArena(src string, a *Arena) (*TranslationUnit, error) {
	tu, err := ParseWithArena(src, a)
	if err != nil {
		return nil, err
	}
	if err := Check(tu); err != nil {
		return nil, err
	}
	return tu, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.advance(); return t }

func (p *Parser) advance() {
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
}

func (p *Parser) peek(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) atKw(kw string) bool { return p.cur().Is(kw) }

func (p *Parser) accept(k TokenKind) (Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return Token{}, false
}

func (p *Parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokenKind) Token {
	if p.at(k) {
		return p.next()
	}
	p.fail("expected %s, found %q", k, p.cur().Text)
	return p.cur()
}

// fail records the first error and fast-forwards to EOF so parsing
// unwinds without panics.
func (p *Parser) fail(format string, args ...any) {
	if p.err == nil {
		t := p.cur()
		p.err = &ParseError{Line: t.Line, Col: t.Col,
			Msg: fmt.Sprintf(format, args...)}
	}
	p.pos = len(p.toks) - 1
}

// pushScopeMap grows s by one scope, reusing (and clearing) a map
// retained in the slice's spare capacity from an earlier pooled parse.
func pushScopeMap[V any](s []map[string]V) []map[string]V {
	n := len(s)
	if n < cap(s) {
		s = s[:n+1]
		if s[n] == nil {
			s[n] = map[string]V{}
		} else {
			clear(s[n])
		}
		return s
	}
	return append(s, map[string]V{})
}

func (p *Parser) pushScope() {
	p.typedefScopes = pushScopeMap(p.typedefScopes)
	p.tagScopes = pushScopeMap(p.tagScopes)
}

func (p *Parser) popScope() {
	p.typedefScopes = p.typedefScopes[:len(p.typedefScopes)-1]
	p.tagScopes = p.tagScopes[:len(p.tagScopes)-1]
}

func (p *Parser) defineTypedef(name string, ty QualType) {
	p.typedefScopes[len(p.typedefScopes)-1][name] = ty
}

func (p *Parser) lookupTypedef(name string) (QualType, bool) {
	for i := len(p.typedefScopes) - 1; i >= 0; i-- {
		if ty, ok := p.typedefScopes[i][name]; ok {
			return ty, true
		}
	}
	return QualType{}, false
}

func (p *Parser) defineTag(name string, d Decl) {
	p.tagScopes[len(p.tagScopes)-1][name] = d
}

func (p *Parser) lookupTag(name string) (Decl, bool) {
	for i := len(p.tagScopes) - 1; i >= 0; i-- {
		if d, ok := p.tagScopes[i][name]; ok {
			return d, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

func (p *Parser) parseTranslationUnit() *TranslationUnit {
	a := p.arena
	tu := a.translationUnits.get()
	start := p.cur().Pos
	mark := len(a.scDecls)
	for !p.at(TokEOF) && p.err == nil {
		if _, ok := p.accept(TokSemi); ok {
			continue
		}
		p.parseExternalDeclaration()
	}
	tu.Decls = cutList(&a.declLists, &a.scDecls, mark)
	tu.SetRange(start, p.cur().End)
	return tu
}

// isTypeSpecKeyword reports whether the keyword kw can begin
// declaration specifiers.
func isTypeSpecKeyword(kw string) bool {
	switch kw {
	case "void", "char", "short", "int", "long", "float", "double",
		"signed", "unsigned", "_Bool", "_Complex", "struct", "union",
		"enum", "const", "volatile", "restrict", "static", "extern",
		"typedef", "register", "auto", "inline", "__restrict", "__inline",
		"__const", "__signed__", "__extension__", "__volatile__":
		return true
	}
	return false
}

// startsDecl reports whether the current token begins a declaration.
func (p *Parser) startsDecl() bool {
	t := p.cur()
	if t.Kind == TokKeyword && isTypeSpecKeyword(t.Text) {
		return true
	}
	if t.Kind == TokIdent {
		if _, ok := p.lookupTypedef(t.Text); ok {
			// "T * x;" is a declaration; "T * x" as expression would
			// need T to be a variable, which typedef shadows here.
			return true
		}
	}
	return false
}

// parseExternalDeclaration pushes the parsed declarations onto the
// arena's decl scratch stack (the caller cuts the whole top-level run
// once, into tu.Decls).
func (p *Parser) parseExternalDeclaration() {
	a := p.arena
	specs := p.parseDeclSpecs()
	if p.err != nil {
		return
	}
	// "struct s { ... };" with no declarator.
	if p.at(TokSemi) {
		p.advance()
		if specs.ownedTag != nil {
			a.scDecls = append(a.scDecls, specs.ownedTag)
		}
		return
	}
	if specs.ownedTag != nil {
		a.scDecls = append(a.scDecls, specs.ownedTag)
	}
	for {
		name, ty, nameRng, declStart := p.parseDeclarator(specs.base)
		if p.err != nil {
			return
		}
		if ft, ok := ty.T.(*FuncType); ok && p.at(TokLBrace) {
			fd := p.parseFunctionDefinition(name, ft, specs, declStart, nameRng)
			a.scDecls = append(a.scDecls, fd)
			return
		}
		d := p.finishInitDeclarator(name, ty, specs, nameRng, declStart, true)
		if d != nil {
			a.scDecls = append(a.scDecls, d)
		}
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	p.expect(TokSemi)
}

// declSpecs carries the parsed declaration specifiers.
type declSpecs struct {
	base    QualType
	storage StorageClass
	inline  bool
	// ownedTag is a RecordDecl/EnumDecl defined inline in the specifiers,
	// which must be emitted as a declaration of its own.
	ownedTag Decl
	// start is the byte offset where the specifiers began.
	start int
	end   int
}

func (p *Parser) parseDeclSpecs() declSpecs {
	ds := declSpecs{start: p.cur().Pos}
	var (
		quals    Qualifiers
		sawType  bool
		longs    int
		unsigned bool
		signed_  bool
		baseKind = Int
		sawBase  bool
		complex_ bool
		result   QualType
	)
	// setBase records a base type-specifier keyword, rejecting illegal
	// combinations like "int double" ("two or more data types in
	// declaration specifiers"). "short int"/"int short" are the only
	// legal pairings among the base keywords (long is counted apart).
	setBase := func(k BasicKind) {
		if sawBase {
			okPair := (baseKind == Short && k == Int) ||
				(baseKind == Int && k == Short)
			if !okPair && baseKind != k {
				p.fail("two or more data types in declaration specifiers")
				return
			}
			if baseKind == Int && k == Short {
				baseKind = Short
			}
			sawType = true
			return
		}
		sawBase, sawType = true, true
		baseKind = k
	}
	for {
		t := p.cur()
		switch {
		case t.Is("const") || t.Is("__const"):
			quals |= QualConst
			p.advance()
		case t.Is("volatile") || t.Is("__volatile__"):
			quals |= QualVolatile
			p.advance()
		case t.Is("restrict") || t.Is("__restrict"):
			quals |= QualRestrict
			p.advance()
		case t.Is("__extension__"):
			p.advance()
		case t.Is("static"):
			ds.storage = StorageStatic
			p.advance()
		case t.Is("extern"):
			ds.storage = StorageExtern
			p.advance()
		case t.Is("typedef"):
			ds.storage = StorageTypedef
			p.advance()
		case t.Is("register"):
			ds.storage = StorageRegister
			p.advance()
		case t.Is("auto"):
			ds.storage = StorageAuto
			p.advance()
		case t.Is("inline") || t.Is("__inline"):
			ds.inline = true
			p.advance()
		case t.Is("void"):
			setBase(Void)
			p.advance()
		case t.Is("_Bool"):
			setBase(Bool)
			p.advance()
		case t.Is("char"):
			setBase(Char)
			p.advance()
		case t.Is("short"):
			setBase(Short)
			p.advance()
		case t.Is("int"):
			if longs == 0 {
				setBase(Int)
			} else {
				sawType = true
			}
			p.advance()
		case t.Is("long"):
			sawType = true
			longs++
			p.advance()
		case t.Is("float"):
			setBase(Float)
			p.advance()
		case t.Is("double"):
			setBase(Double)
			p.advance()
		case t.Is("signed") || t.Is("__signed__"):
			sawType, signed_ = true, true
			p.advance()
		case t.Is("unsigned"):
			sawType, unsigned = true, true
			p.advance()
		case t.Is("_Complex"):
			sawType, complex_ = true, true
			p.advance()
		case t.Is("struct") || t.Is("union"):
			result = p.parseRecordSpecifier(&ds)
			sawType = true
		case t.Is("enum"):
			result = p.parseEnumSpecifier(&ds)
			sawType = true
		case t.Kind == TokIdent && !sawType && result.IsNil():
			if ty, ok := p.lookupTypedef(t.Text); ok {
				tt := p.arena.typedefTypes.get()
				tt.Name, tt.Underlying = t.Text, ty
				result = QualType{T: tt}
				sawType = true
				p.advance()
			} else {
				goto done
			}
		default:
			goto done
		}
	}
done:
	if result.IsNil() {
		if !sawType {
			// Implicit int (K&R style, appears in compiler test suites).
			baseKind = Int
		}
		result = basicTy(p.combineBasic(baseKind, longs, unsigned, signed_, complex_))
	}
	ds.base = result.WithQuals(quals)
	ds.end = p.cur().Pos
	return ds
}

func (p *Parser) combineBasic(k BasicKind, longs int, unsigned, signed_, complex_ bool) BasicKind {
	if complex_ {
		return ComplexDouble
	}
	switch k {
	case Char:
		if unsigned {
			return UChar
		}
		if signed_ {
			return SChar
		}
		return Char
	case Short:
		if unsigned {
			return UShort
		}
		return Short
	case Double:
		if longs > 0 {
			return LongDouble
		}
		return Double
	case Int:
		switch {
		case longs >= 2:
			if unsigned {
				return ULongLong
			}
			return LongLong
		case longs == 1:
			if unsigned {
				return ULong
			}
			return Long
		case unsigned:
			return UInt
		}
		return Int
	}
	return k
}

func (p *Parser) parseRecordSpecifier(ds *declSpecs) QualType {
	a := p.arena
	kw := p.next() // struct or union
	isUnion := kw.Text == "union"
	name := ""
	if t, ok := p.accept(TokIdent); ok {
		name = t.Text
	}
	var rd *RecordDecl
	if name != "" {
		if d, ok := p.lookupTag(name); ok {
			rd, _ = d.(*RecordDecl)
		}
	}
	if rd == nil {
		rd = a.recordDecls.get()
		rd.Name, rd.IsUnion = name, isUnion
		rd.SetRange(kw.Pos, p.cur().End)
		if name != "" {
			p.defineTag(name, rd)
		}
	}
	if p.at(TokLBrace) {
		p.advance()
		rd.Complete = true
		fmark := len(a.scFields)
		for !p.at(TokRBrace) && p.err == nil {
			fieldSpecs := p.parseDeclSpecs()
			for {
				fname, fty, fnameRng, fstart := p.parseDeclarator(fieldSpecs.base)
				// Bitfields: parse and ignore the width.
				if _, ok := p.accept(TokColon); ok {
					p.parseConditionalExpr()
				}
				fd := a.fieldDecls.get()
				fd.Name, fd.Ty = fname, fty
				fd.SetRange(fstart, p.cur().Pos)
				_ = fnameRng
				a.scFields = append(a.scFields, fd)
				if _, ok := p.accept(TokComma); !ok {
					break
				}
			}
			p.expect(TokSemi)
		}
		rbrace := p.expect(TokRBrace)
		flds := cutList(&a.fieldLists, &a.scFields, fmark)
		if rd.Fields == nil {
			rd.Fields = flds
		} else {
			// Tag redefinition: keep the historical append semantics.
			rd.Fields = append(rd.Fields[:len(rd.Fields):len(rd.Fields)], flds...)
		}
		rd.SetRange(kw.Pos, rbrace.End)
		ds.ownedTag = rd
	}
	rt := a.recordTypes.get()
	rt.Decl = rd
	return QualType{T: rt}
}

func (p *Parser) parseEnumSpecifier(ds *declSpecs) QualType {
	a := p.arena
	kw := p.next() // enum
	name := ""
	if t, ok := p.accept(TokIdent); ok {
		name = t.Text
	}
	var ed *EnumDecl
	if name != "" {
		if d, ok := p.lookupTag(name); ok {
			ed, _ = d.(*EnumDecl)
		}
	}
	if ed == nil {
		ed = a.enumDecls.get()
		ed.Name = name
		ed.SetRange(kw.Pos, p.cur().End)
		if name != "" {
			p.defineTag(name, ed)
		}
	}
	if p.at(TokLBrace) {
		p.advance()
		next := int64(0)
		emark := len(a.scEnums)
		for !p.at(TokRBrace) && p.err == nil {
			ct := p.expect(TokIdent)
			ec := a.enumConstants.get()
			ec.Name = ct.Text
			ec.SetRange(ct.Pos, ct.End)
			if _, ok := p.accept(TokAssign); ok {
				ec.Value = p.parseConditionalExpr()
				if v, ok := constIntValue(ec.Value); ok {
					next = v
				}
				ec.SetRange(ct.Pos, p.cur().Pos)
			}
			ec.Num = next
			next++
			a.scEnums = append(a.scEnums, ec)
			if _, ok := p.accept(TokComma); !ok {
				break
			}
		}
		rbrace := p.expect(TokRBrace)
		consts := cutList(&a.enumLists, &a.scEnums, emark)
		if ed.Constants == nil {
			ed.Constants = consts
		} else {
			ed.Constants = append(ed.Constants[:len(ed.Constants):len(ed.Constants)], consts...)
		}
		ed.SetRange(kw.Pos, rbrace.End)
		ds.ownedTag = ed
	}
	et := a.enumTypes.get()
	et.Decl = ed
	return QualType{T: et}
}

// ConstIntValue evaluates trivially constant integer expressions (as used
// in enum values and array dimensions): literals and pure arithmetic over
// them. ok is false for anything it cannot fold.
func ConstIntValue(e Expr) (int64, bool) { return constIntValue(e) }

// constIntValue evaluates trivially constant integer expressions used in
// enum values and array dimensions.
func constIntValue(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntegerLiteral:
		return x.Value, true
	case *CharLiteral:
		return int64(x.Value), true
	case *ParenExpr:
		return constIntValue(x.X)
	case *UnaryOperator:
		v, ok := constIntValue(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case UnMinus:
			return -v, true
		case UnPlus:
			return v, true
		case UnNot:
			return ^v, true
		case UnLNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *BinaryOperator:
		l, lok := constIntValue(x.LHS)
		r, rok := constIntValue(x.RHS)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case BinAdd:
			return l + r, true
		case BinSub:
			return l - r, true
		case BinMul:
			return l * r, true
		case BinDiv:
			if r != 0 {
				return l / r, true
			}
		case BinRem:
			if r != 0 {
				return l % r, true
			}
		case BinShl:
			if r >= 0 && r < 64 {
				return l << uint(r), true
			}
		case BinShr:
			if r >= 0 && r < 64 {
				return l >> uint(r), true
			}
		case BinAnd:
			return l & r, true
		case BinOr:
			return l | r, true
		case BinXor:
			return l ^ r, true
		}
	}
	return 0, false
}

// parseDeclarator parses pointers, the declarator core, and array/function
// suffixes, producing the declared name and full type. declStart is the
// offset where the enclosing declaration began (the specifiers).
func (p *Parser) parseDeclarator(baseTy QualType) (name string, ty QualType, nameRng SourceRange, declStart int) {
	declStart = p.cur().Pos
	ty = p.parsePointers(baseTy)
	name, ty, nameRng = p.parseDirectDeclarator(ty)
	return name, ty, nameRng, declStart
}

func (p *Parser) parsePointers(ty QualType) QualType {
	for p.at(TokStar) {
		p.advance()
		var q Qualifiers
		for {
			switch {
			case p.acceptKw("const") || p.acceptKw("__const"):
				q |= QualConst
			case p.acceptKw("volatile") || p.acceptKw("__volatile__"):
				q |= QualVolatile
			case p.acceptKw("restrict") || p.acceptKw("__restrict"):
				q |= QualRestrict
			default:
				pt := p.arena.pointerTypes.get()
				pt.Elem = ty
				ty = QualType{T: pt, Q: q}
				goto next
			}
		}
	next:
	}
	return ty
}

// parseDirectDeclarator handles "(declarator)", the identifier, and
// array/function suffixes. Parenthesized declarators are supported by
// recording suffixes and re-applying them inside-out.
func (p *Parser) parseDirectDeclarator(ty QualType) (string, QualType, SourceRange) {
	// Parenthesized declarator, e.g. int (*fp)(int).
	if p.at(TokLParen) && p.isAbstractParen() {
		p.advance()
		// Parse the inner declarator against a placeholder, then wrap.
		innerStart := p.pos
		// Skip to matching ')' to find suffixes first.
		depth := 1
		for depth > 0 && !p.at(TokEOF) {
			if p.at(TokLParen) {
				depth++
			} else if p.at(TokRParen) {
				depth--
				if depth == 0 {
					break
				}
			}
			p.advance()
		}
		p.expect(TokRParen)
		// Parse suffixes that apply to the inner declarator.
		ty = p.parseDeclSuffixes(ty)
		// Now re-parse the inner declarator with the suffixed type.
		save := p.pos
		p.pos = innerStart
		innerTy := p.parsePointers(ty)
		name, innerTy, nameRng := p.parseDirectDeclarator(innerTy)
		p.pos = save
		return name, innerTy, nameRng
	}
	var name string
	var nameRng SourceRange
	if t, ok := p.accept(TokIdent); ok {
		name = t.Text
		nameRng = SourceRange{t.Pos, t.End}
	}
	ty = p.parseDeclSuffixes(ty)
	return name, ty, nameRng
}

// isAbstractParen distinguishes "(*...)" / "(ident...)" declarators from a
// function parameter list "(int x)".
func (p *Parser) isAbstractParen() bool {
	t := p.peek(1)
	if t.Kind == TokStar {
		return true
	}
	if t.Kind == TokIdent {
		_, isTypedef := p.lookupTypedef(t.Text)
		return !isTypedef
	}
	return false
}

// declSuffix is one array/function declarator suffix, collected
// left-to-right on the parser's scratch stack and folded right-to-left.
type declSuffix struct {
	isArray  bool
	size     int64
	params   []*ParmVarDecl
	variadic bool
}

func (p *Parser) parseDeclSuffixes(ty QualType) QualType {
	// Collect suffixes left-to-right, then fold right-to-left so that
	// "int a[2][3]" becomes array(2, array(3, int)). The stack nests
	// (parameter declarators recurse here), so only our own tail — past
	// mark — is folded and truncated.
	a := p.arena
	mark := len(p.scSuffixes)
	for {
		switch {
		case p.at(TokLBracket):
			p.advance()
			sz := int64(-1)
			if !p.at(TokRBracket) {
				e := p.parseAssignExpr()
				if v, ok := constIntValue(e); ok {
					sz = v
				} else {
					sz = 1 // VLA-ish; treat as size-1 for layout
				}
			}
			p.expect(TokRBracket)
			p.scSuffixes = append(p.scSuffixes, declSuffix{isArray: true, size: sz})
		case p.at(TokLParen):
			p.advance()
			params, variadic := p.parseParamList()
			p.expect(TokRParen)
			p.scSuffixes = append(p.scSuffixes, declSuffix{params: params, variadic: variadic})
		default:
			goto fold
		}
	}
fold:
	for i := len(p.scSuffixes) - 1; i >= mark; i-- {
		s := p.scSuffixes[i]
		if s.isArray {
			at := a.arrayTypes.get()
			at.Elem, at.Size = ty, s.size
			ty = QualType{T: at}
		} else {
			ft := a.funcTypes.get()
			ft.Ret, ft.Variadic = ty, s.variadic
			qmark := len(a.scQTs)
			for _, pv := range s.params {
				a.scQTs = append(a.scQTs, pv.Ty)
			}
			ft.Params = cutList(&a.qtLists, &a.scQTs, qmark)
			ty = QualType{T: ft}
			// Stash the decls so parseFunctionDefinition can reuse them.
			p.lastParams = s.params
		}
	}
	p.scSuffixes = p.scSuffixes[:mark]
	return ty
}

func (p *Parser) parseParamList() ([]*ParmVarDecl, bool) {
	a := p.arena
	mark := len(a.scParms)
	variadic := false
	if p.at(TokRParen) {
		return nil, false
	}
	// "(void)" means no parameters.
	if p.atKw("void") && p.peek(1).Kind == TokRParen {
		p.advance()
		return nil, false
	}
	idx := 0
	for {
		if p.at(TokEllipsis) {
			p.advance()
			variadic = true
			break
		}
		if !p.startsDecl() {
			// K&R identifier list: treat each as int parameter.
			if t, ok := p.accept(TokIdent); ok {
				pv := a.parmVarDecls.get()
				pv.Name, pv.Ty, pv.Index = t.Text, IntTy, idx
				pv.SetRange(t.Pos, t.End)
				a.scParms = append(a.scParms, pv)
				idx++
				if _, ok := p.accept(TokComma); ok {
					continue
				}
			}
			break
		}
		specs := p.parseDeclSpecs()
		start := p.cur().Pos
		pname, pty, _, _ := p.parseDeclarator(specs.base)
		pty = a.decay(pty) // arrays/functions decay in parameter position
		pv := a.parmVarDecls.get()
		pv.Name, pv.Ty, pv.Index = pname, pty, idx
		pv.SetRange(min(specs.start, start), p.cur().Pos)
		a.scParms = append(a.scParms, pv)
		idx++
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	return cutList(&a.parmLists, &a.scParms, mark), variadic
}

func (p *Parser) parseFunctionDefinition(name string, ft *FuncType,
	specs declSpecs, declStart int, nameRng SourceRange) *FunctionDecl {
	fd := p.arena.functionDecls.get()
	fd.Name = name
	fd.Ret = ft.Ret
	fd.Params = p.lastParams
	fd.Storage = specs.storage
	fd.Inline = specs.inline
	fd.Variadic = ft.Variadic
	fd.RetTypeRange = SourceRange{specs.start, specs.end}
	fd.NameRange = nameRng
	p.pushScope()
	fd.Body = p.parseCompoundStmt()
	p.popScope()
	// The definition's extent starts at its declaration specifiers, not
	// at the declarator — insertions before the function must land
	// before the return type.
	begin := declStart
	if specs.start < begin {
		begin = specs.start
	}
	fd.SetRange(begin, fd.Body.Range().End)
	return fd
}

func (p *Parser) finishInitDeclarator(name string, ty QualType,
	specs declSpecs, nameRng SourceRange, declStart int, global bool) Decl {
	a := p.arena
	if specs.storage == StorageTypedef {
		p.defineTypedef(name, ty)
		td := a.typedefDecls.get()
		td.Name, td.Ty = name, ty
		td.SetRange(specs.start, p.cur().End)
		return td
	}
	if ty.IsFunc() {
		// Function prototype.
		ft := ty.Canonical().T.(*FuncType)
		fd := a.functionDecls.get()
		fd.Name, fd.Ret, fd.Params = name, ft.Ret, p.lastParams
		fd.Storage, fd.Variadic = specs.storage, ft.Variadic
		fd.RetTypeRange = SourceRange{specs.start, specs.end}
		fd.NameRange = nameRng
		fd.SetRange(specs.start, p.cur().End)
		return fd
	}
	vd := a.varDecls.get()
	vd.Name, vd.Ty, vd.Storage, vd.IsGlobal = name, ty, specs.storage, global
	vd.NameRange = nameRng
	vd.TypeRange = SourceRange{specs.start, specs.end}
	if _, ok := p.accept(TokAssign); ok {
		initStart := p.cur().Pos
		vd.Init = p.parseInitializer()
		vd.InitRange = SourceRange{initStart, p.cur().Pos}
		if vd.Init != nil {
			vd.InitRange = vd.Init.Range()
		}
	}
	vd.SetRange(specs.start, p.cur().Pos)
	return vd
}

func (p *Parser) parseInitializer() Expr {
	if p.at(TokLBrace) {
		return p.parseInitList()
	}
	return p.parseAssignExpr()
}

func (p *Parser) parseInitList() *InitListExpr {
	a := p.arena
	lb := p.expect(TokLBrace)
	il := a.initLists.get()
	mark := len(a.scExprs)
	for !p.at(TokRBrace) && p.err == nil {
		// Designators: ".field =" / "[idx] =" — parse and discard.
		for p.at(TokDot) || p.at(TokLBracket) {
			if p.at(TokDot) {
				p.advance()
				p.expect(TokIdent)
			} else {
				p.advance()
				p.parseConditionalExpr()
				p.expect(TokRBracket)
			}
		}
		p.accept(TokAssign)
		a.scExprs = append(a.scExprs, p.parseInitializer())
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	rb := p.expect(TokRBrace)
	il.Inits = cutList(&a.exprLists, &a.scExprs, mark)
	il.SetRange(lb.Pos, rb.End)
	return il
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

func (p *Parser) parseCompoundStmt() *CompoundStmt {
	a := p.arena
	lb := p.expect(TokLBrace)
	cs := a.compoundStmts.get()
	p.pushScope()
	mark := len(a.scStmts)
	for !p.at(TokRBrace) && !p.at(TokEOF) && p.err == nil {
		a.scStmts = append(a.scStmts, p.parseStmt())
	}
	cs.Stmts = cutList(&a.stmtLists, &a.scStmts, mark)
	p.popScope()
	rb := p.expect(TokRBrace)
	cs.SetRange(lb.Pos, rb.End)
	return cs
}

func (p *Parser) parseStmt() Stmt {
	a := p.arena
	t := p.cur()
	switch {
	case p.at(TokLBrace):
		return p.parseCompoundStmt()
	case p.at(TokSemi):
		p.advance()
		ns := a.nullStmts.get()
		ns.SetRange(t.Pos, t.End)
		return ns
	case t.Is("if"):
		return p.parseIfStmt()
	case t.Is("while"):
		return p.parseWhileStmt()
	case t.Is("do"):
		return p.parseDoStmt()
	case t.Is("for"):
		return p.parseForStmt()
	case t.Is("switch"):
		return p.parseSwitchStmt()
	case t.Is("case"):
		p.advance()
		v := p.parseConditionalExpr()
		// GNU case ranges: case 1 ... 5:
		if p.at(TokEllipsis) {
			p.advance()
			p.parseConditionalExpr()
		}
		p.expect(TokColon)
		cs := a.caseStmts.get()
		cs.Value = v
		if !p.at(TokRBrace) {
			cs.Body = p.parseStmt()
		}
		end := t.End
		if cs.Body != nil {
			end = cs.Body.Range().End
		}
		cs.SetRange(t.Pos, end)
		return cs
	case t.Is("default"):
		p.advance()
		p.expect(TokColon)
		dst := a.defaultStmts.get()
		if !p.at(TokRBrace) {
			dst.Body = p.parseStmt()
		}
		end := t.End
		if dst.Body != nil {
			end = dst.Body.Range().End
		}
		dst.SetRange(t.Pos, end)
		return dst
	case t.Is("break"):
		p.advance()
		semi := p.expect(TokSemi)
		bs := a.breakStmts.get()
		bs.SetRange(t.Pos, semi.End)
		return bs
	case t.Is("continue"):
		p.advance()
		semi := p.expect(TokSemi)
		cs := a.continueStmts.get()
		cs.SetRange(t.Pos, semi.End)
		return cs
	case t.Is("return"):
		p.advance()
		rs := a.returnStmts.get()
		if !p.at(TokSemi) {
			rs.Value = p.parseExpr()
		}
		semi := p.expect(TokSemi)
		rs.SetRange(t.Pos, semi.End)
		return rs
	case t.Is("goto"):
		p.advance()
		lbl := p.expect(TokIdent)
		semi := p.expect(TokSemi)
		gs := a.gotoStmts.get()
		gs.Label = lbl.Text
		gs.SetRange(t.Pos, semi.End)
		return gs
	case t.Kind == TokIdent && p.peek(1).Kind == TokColon:
		p.advance()
		p.advance()
		ls := a.labelStmts.get()
		ls.Name = t.Text
		if !p.at(TokRBrace) {
			ls.Body = p.parseStmt()
		}
		end := t.End
		if ls.Body != nil {
			end = ls.Body.Range().End
		}
		ls.SetRange(t.Pos, end)
		return ls
	case p.startsDecl():
		return p.parseDeclStmt()
	default:
		e := p.parseExpr()
		semi := p.expect(TokSemi)
		es := a.exprStmts.get()
		es.X = e
		es.SetRange(t.Pos, semi.End)
		return es
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	a := p.arena
	start := p.cur().Pos
	specs := p.parseDeclSpecs()
	ds := a.declStmts.get()
	mark := len(a.scDecls)
	if specs.ownedTag != nil {
		a.scDecls = append(a.scDecls, specs.ownedTag)
	}
	if !p.at(TokSemi) {
		for {
			name, ty, nameRng, declStart := p.parseDeclarator(specs.base)
			d := p.finishInitDeclarator(name, ty, specs, nameRng, declStart, false)
			if d != nil {
				a.scDecls = append(a.scDecls, d)
			}
			if _, ok := p.accept(TokComma); !ok {
				break
			}
		}
	}
	semi := p.expect(TokSemi)
	ds.Decls = cutList(&a.declLists, &a.scDecls, mark)
	ds.SetRange(start, semi.End)
	return ds
}

func (p *Parser) parseIfStmt() Stmt {
	kw := p.next()
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	is := p.arena.ifStmts.get()
	is.Cond = cond
	is.Then = p.parseStmt()
	end := is.Then.Range().End
	if p.acceptKw("else") {
		is.Else = p.parseStmt()
		end = is.Else.Range().End
	}
	is.SetRange(kw.Pos, end)
	return is
}

func (p *Parser) parseWhileStmt() Stmt {
	kw := p.next()
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	ws := p.arena.whileStmts.get()
	ws.Cond = cond
	ws.Body = p.parseStmt()
	ws.SetRange(kw.Pos, ws.Body.Range().End)
	return ws
}

func (p *Parser) parseDoStmt() Stmt {
	kw := p.next()
	dsw := p.arena.doStmts.get()
	dsw.Body = p.parseStmt()
	if !p.acceptKw("while") {
		p.fail("expected 'while' after do body")
		return dsw
	}
	p.expect(TokLParen)
	dsw.Cond = p.parseExpr()
	p.expect(TokRParen)
	semi := p.expect(TokSemi)
	dsw.SetRange(kw.Pos, semi.End)
	return dsw
}

func (p *Parser) parseForStmt() Stmt {
	kw := p.next()
	p.expect(TokLParen)
	fs := p.arena.forStmts.get()
	p.pushScope()
	if !p.at(TokSemi) {
		if p.startsDecl() {
			fs.Init = p.parseDeclStmt()
		} else {
			start := p.cur().Pos
			e := p.parseExpr()
			semi := p.expect(TokSemi)
			es := p.arena.exprStmts.get()
			es.X = e
			es.SetRange(start, semi.End)
			fs.Init = es
		}
	} else {
		p.advance()
	}
	if !p.at(TokSemi) {
		fs.Cond = p.parseExpr()
	}
	p.expect(TokSemi)
	if !p.at(TokRParen) {
		fs.Post = p.parseExpr()
	}
	p.expect(TokRParen)
	fs.Body = p.parseStmt()
	p.popScope()
	fs.SetRange(kw.Pos, fs.Body.Range().End)
	return fs
}

func (p *Parser) parseSwitchStmt() Stmt {
	kw := p.next()
	p.expect(TokLParen)
	cond := p.parseExpr()
	p.expect(TokRParen)
	ss := p.arena.switchStmts.get()
	ss.Cond = cond
	ss.Body = p.parseStmt()
	ss.SetRange(kw.Pos, ss.Body.Range().End)
	return ss
}

// ---------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------

// parseExpr parses a full expression including the comma operator.
func (p *Parser) parseExpr() Expr {
	e := p.parseAssignExpr()
	for p.at(TokComma) {
		p.advance()
		rhs := p.parseAssignExpr()
		ce := p.arena.commaExprs.get()
		ce.LHS, ce.RHS = e, rhs
		ce.SetRange(e.Range().Begin, rhs.Range().End)
		e = ce
	}
	return e
}

// assignOp maps an assignment token to its operator.
func assignOp(k TokenKind) (BinOp, bool) {
	switch k {
	case TokAssign:
		return BinAssign, true
	case TokPlusEq:
		return BinAddAssign, true
	case TokMinusEq:
		return BinSubAssign, true
	case TokStarEq:
		return BinMulAssign, true
	case TokSlashEq:
		return BinDivAssign, true
	case TokPercentEq:
		return BinRemAssign, true
	case TokAmpEq:
		return BinAndAssign, true
	case TokPipeEq:
		return BinOrAssign, true
	case TokCaretEq:
		return BinXorAssign, true
	case TokShlEq:
		return BinShlAssign, true
	case TokShrEq:
		return BinShrAssign, true
	}
	return 0, false
}

func (p *Parser) parseAssignExpr() Expr {
	lhs := p.parseConditionalExpr()
	if op, ok := assignOp(p.cur().Kind); ok {
		opTok := p.next()
		rhs := p.parseAssignExpr()
		bo := p.arena.binaryOps.get()
		bo.Op, bo.LHS, bo.RHS = op, lhs, rhs
		bo.OpRange = SourceRange{opTok.Pos, opTok.End}
		bo.SetRange(lhs.Range().Begin, rhs.Range().End)
		return bo
	}
	return lhs
}

func (p *Parser) parseConditionalExpr() Expr {
	cond := p.parseBinaryExpr(0)
	if !p.at(TokQuestion) {
		return cond
	}
	p.advance()
	then := p.parseExpr()
	p.expect(TokColon)
	els := p.parseConditionalExpr()
	ce := p.arena.condExprs.get()
	ce.Cond, ce.Then, ce.Else = cond, then, els
	ce.SetRange(cond.Range().Begin, els.Range().End)
	return ce
}

// binPrec maps token kinds to (binary operator, precedence); higher binds
// tighter, and precedence 0 marks a token that is no binary operator.
type binPrecEntry struct {
	op   BinOp
	prec int
}

var binPrec = [...]binPrecEntry{
	TokStar: {BinMul, 10}, TokSlash: {BinDiv, 10}, TokPercent: {BinRem, 10},
	TokPlus: {BinAdd, 9}, TokMinus: {BinSub, 9},
	TokShl: {BinShl, 8}, TokShr: {BinShr, 8},
	TokLess: {BinLT, 7}, TokGreater: {BinGT, 7},
	TokLessEq: {BinLE, 7}, TokGreaterEq: {BinGE, 7},
	TokEqEq: {BinEQ, 6}, TokNotEq: {BinNE, 6},
	TokAmp: {BinAnd, 5}, TokCaret: {BinXor, 4}, TokPipe: {BinOr, 3},
	TokAmpAmp: {BinLAnd, 2}, TokPipePipe: {BinLOr, 1},
}

func (p *Parser) parseBinaryExpr(minPrec int) Expr {
	lhs := p.parseCastExpr()
	for {
		var ent binPrecEntry
		if k := p.cur().Kind; int(k) < len(binPrec) {
			ent = binPrec[k]
		}
		if ent.prec == 0 || ent.prec < minPrec {
			return lhs
		}
		opTok := p.next()
		rhs := p.parseBinaryExpr(ent.prec + 1)
		bo := p.arena.binaryOps.get()
		bo.Op, bo.LHS, bo.RHS = ent.op, lhs, rhs
		bo.OpRange = SourceRange{opTok.Pos, opTok.End}
		bo.SetRange(lhs.Range().Begin, rhs.Range().End)
		lhs = bo
	}
}

// startsTypeName reports whether the token after a '(' begins a type name.
func (p *Parser) startsTypeNameAt(n int) bool {
	t := p.peek(n)
	if t.Kind == TokKeyword && isTypeSpecKeyword(t.Text) &&
		t.Text != "static" && t.Text != "extern" && t.Text != "typedef" &&
		t.Text != "register" && t.Text != "auto" {
		return true
	}
	if t.Kind == TokIdent {
		_, ok := p.lookupTypedef(t.Text)
		return ok
	}
	return false
}

func (p *Parser) parseCastExpr() Expr {
	if p.at(TokLParen) && p.startsTypeNameAt(1) {
		lp := p.next()
		ty := p.parseTypeName()
		rp := p.expect(TokRParen)
		if p.at(TokLBrace) {
			// Compound literal.
			il := p.parseInitList()
			cl := p.arena.compoundLits.get()
			cl.To, cl.Init = ty, il
			cl.SetRange(lp.Pos, il.Range().End)
			return cl
		}
		x := p.parseCastExpr()
		ce := p.arena.castExprs.get()
		ce.To, ce.X = ty, x
		ce.TypeRange = SourceRange{lp.Pos, rp.End}
		ce.SetRange(lp.Pos, x.Range().End)
		return ce
	}
	return p.parseUnaryExpr()
}

// parseTypeName parses a type-name (specifiers + abstract declarator).
func (p *Parser) parseTypeName() QualType {
	specs := p.parseDeclSpecs()
	ty := p.parsePointers(specs.base)
	// Abstract array/function suffixes.
	_, ty, _ = p.parseDirectDeclarator(ty)
	return ty
}

// unaryOp maps a prefix operator token (other than ++ and --) to its
// operator.
func unaryOp(k TokenKind) (UnOp, bool) {
	switch k {
	case TokPlus:
		return UnPlus, true
	case TokMinus:
		return UnMinus, true
	case TokTilde:
		return UnNot, true
	case TokBang:
		return UnLNot, true
	case TokStar:
		return UnDeref, true
	case TokAmp:
		return UnAddr, true
	}
	return 0, false
}

func (p *Parser) parseUnaryExpr() Expr {
	t := p.cur()
	switch {
	case p.at(TokPlusPlus) || p.at(TokMinusMinus):
		p.advance()
		x := p.parseUnaryExpr()
		op := UnPreInc
		if t.Kind == TokMinusMinus {
			op = UnPreDec
		}
		ue := p.arena.unaryOps.get()
		ue.Op, ue.X = op, x
		ue.SetRange(t.Pos, x.Range().End)
		return ue
	case t.Is("sizeof"):
		p.advance()
		se := p.arena.sizeofExprs.get()
		if p.at(TokLParen) && p.startsTypeNameAt(1) {
			p.advance()
			se.OfType = p.parseTypeName()
			rp := p.expect(TokRParen)
			se.SetRange(t.Pos, rp.End)
			return se
		}
		se.X = p.parseUnaryExpr()
		se.SetRange(t.Pos, se.X.Range().End)
		return se
	default:
		if op, ok := unaryOp(t.Kind); ok {
			p.advance()
			x := p.parseCastExpr()
			ue := p.arena.unaryOps.get()
			ue.Op, ue.X = op, x
			ue.SetRange(t.Pos, x.Range().End)
			return ue
		}
		return p.parsePostfixExpr()
	}
}

func (p *Parser) parsePostfixExpr() Expr {
	a := p.arena
	e := p.parsePrimaryExpr()
	for p.err == nil {
		t := p.cur()
		switch t.Kind {
		case TokLBracket:
			p.advance()
			idx := p.parseExpr()
			rb := p.expect(TokRBracket)
			ae := a.subscripts.get()
			ae.Base, ae.Index = e, idx
			ae.SetRange(e.Range().Begin, rb.End)
			e = ae
		case TokLParen:
			p.advance()
			call := a.callExprs.get()
			call.Fn = e
			mark := len(a.scExprs)
			for !p.at(TokRParen) && p.err == nil {
				a.scExprs = append(a.scExprs, p.parseAssignExpr())
				if _, ok := p.accept(TokComma); !ok {
					break
				}
			}
			rp := p.expect(TokRParen)
			call.Args = cutList(&a.exprLists, &a.scExprs, mark)
			call.SetRange(e.Range().Begin, rp.End)
			e = call
		case TokDot, TokArrow:
			p.advance()
			fld := p.expect(TokIdent)
			me := a.memberExprs.get()
			me.Base, me.Field, me.IsArrow = e, fld.Text, t.Kind == TokArrow
			me.SetRange(e.Range().Begin, fld.End)
			e = me
		case TokPlusPlus, TokMinusMinus:
			p.advance()
			op := UnPostInc
			if t.Kind == TokMinusMinus {
				op = UnPostDec
			}
			ue := a.unaryOps.get()
			ue.Op, ue.X = op, e
			ue.SetRange(e.Range().Begin, t.End)
			e = ue
		default:
			return e
		}
	}
	return e
}

func (p *Parser) parsePrimaryExpr() Expr {
	a := p.arena
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.advance()
		il := a.intLits.get()
		il.Value, il.Text = parseIntLit(t.Text), t.Text
		il.SetRange(t.Pos, t.End)
		return il
	case TokFloatLit:
		p.advance()
		txt := strings.TrimRight(t.Text, "fFlL")
		v, _ := strconv.ParseFloat(txt, 64)
		fl := a.floatLits.get()
		fl.Value, fl.Text = v, t.Text
		fl.SetRange(t.Pos, t.End)
		return fl
	case TokCharLit:
		p.advance()
		cl := a.charLits.get()
		cl.Value, cl.Text = decodeCharLit(t.Text), t.Text
		cl.SetRange(t.Pos, t.End)
		return cl
	case TokStringLit:
		p.advance()
		sl := a.stringLits.get()
		sl.Value, sl.Text = a.decodeString(t.Text), t.Text
		sl.SetRange(t.Pos, t.End)
		// Adjacent string literal concatenation.
		for p.at(TokStringLit) {
			t2 := p.next()
			sl.Value += a.decodeString(t2.Text)
			sl.Text = p.src[sl.Range().Begin:t2.End]
			sl.SetRange(sl.Range().Begin, t2.End)
		}
		return sl
	case TokIdent:
		p.advance()
		dr := a.declRefs.get()
		dr.Name = t.Text
		dr.SetRange(t.Pos, t.End)
		return dr
	case TokLParen:
		p.advance()
		e := p.parseExpr()
		rp := p.expect(TokRParen)
		pe := a.parenExprs.get()
		pe.X = e
		pe.SetRange(t.Pos, rp.End)
		return pe
	}
	p.fail("expected expression, found %q", t.Text)
	// Return a placeholder so callers do not crash while unwinding.
	il := a.intLits.get()
	il.Value, il.Text = 0, "0"
	il.SetRange(t.Pos, t.End)
	return il
}

func parseIntLit(text string) int64 {
	s := strings.TrimRight(text, "uUlL")
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case len(s) > 1 && s[0] == '0':
		v, err = strconv.ParseUint(s[1:], 8, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0
	}
	return int64(v)
}

func decodeCharLit(text string) byte {
	body := strings.Trim(text, "'")
	if body == "" {
		return 0
	}
	if body[0] != '\\' {
		return body[0]
	}
	if len(body) < 2 {
		return '\\'
	}
	switch body[1] {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	case 'x':
		if v, err := strconv.ParseUint(body[2:], 16, 8); err == nil {
			return byte(v)
		}
	}
	return body[1]
}

func decodeStringLit(text string) string {
	if len(text) < 2 {
		return ""
	}
	body := text[1 : len(text)-1]
	var sb strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' || i+1 >= len(body) {
			sb.WriteByte(c)
			continue
		}
		i++
		switch body[i] {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case '0':
			sb.WriteByte(0)
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case '\'':
			sb.WriteByte('\'')
		default:
			sb.WriteByte(body[i])
		}
	}
	return sb.String()
}
