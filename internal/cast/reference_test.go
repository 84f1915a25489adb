package cast

// This file keeps the front end's former map-driven lexer, keyword and
// operator tables and closure-driven walker as references. The
// equivalence tests and fuzz targets in equiv_test.go require the
// table-driven code to give the same tokens, errors, operators and
// walk order on every input.

import (
	"fmt"
	"strings"
)

// refLexer is the former map-driven lexer, kept verbatim but for names.
type refLexer struct {
	src  string
	off  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1}
}

// refLex is the former Lex.
func refLex(src string) ([]Token, error) {
	lx := newRefLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *refLexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *refLexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *refLexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *refLexer) errorf(format string, args ...any) error {
	return &LexError{Pos: lx.off, Line: lx.line, Col: lx.col,
		Msg: fmt.Sprintf(format, args...)}
}

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (lx *refLexer) skipTrivia() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errorf("unterminated block comment")
			}
		case c == '#' && lx.atLineStart():
			// Skip the directive, honoring backslash continuations.
			for lx.off < len(lx.src) {
				if lx.peek() == '\\' && lx.peekAt(1) == '\n' {
					lx.advance()
					lx.advance()
					continue
				}
				if lx.peek() == '\n' {
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *refLexer) atLineStart() bool {
	for i := lx.off - 1; i >= 0; i-- {
		switch lx.src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

// Next returns the next token.
func (lx *refLexer) Next() (Token, error) {
	if err := lx.skipTrivia(); err != nil {
		return Token{}, err
	}
	start, line, col := lx.off, lx.line, lx.col
	mk := func(k TokenKind) Token {
		return Token{Kind: k, Text: lx.src[start:lx.off], Pos: start,
			End: lx.off, Line: line, Col: col}
	}
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start, End: start, Line: line, Col: col}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		t := mk(TokIdent)
		if refKeywords[t.Text] {
			t.Kind = TokKeyword
		}
		return t, nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(mk)
	case c == '\'':
		return lx.lexCharLit(mk)
	case c == '"':
		return lx.lexStringLit(mk)
	}
	return lx.lexPunct(mk)
}

func (lx *refLexer) lexNumber(mk func(TokenKind) Token) (Token, error) {
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' || lx.peek() == 'p' || lx.peek() == 'P' {
			// Hex float.
			isFloat = true
			for lx.off < len(lx.src) &&
				(isHexDigit(lx.peek()) || lx.peek() == '.' || lx.peek() == 'p' ||
					lx.peek() == 'P' || lx.peek() == '+' || lx.peek() == '-') {
				lx.advance()
			}
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			next := lx.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(lx.peekAt(2))) {
				isFloat = true
				lx.advance()
				if lx.peek() == '+' || lx.peek() == '-' {
					lx.advance()
				}
				for lx.off < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	// Suffixes (u, l, f combinations).
	for lx.off < len(lx.src) && strings.ContainsRune("uUlLfF", rune(lx.peek())) {
		if lx.peek() == 'f' || lx.peek() == 'F' {
			isFloat = true
		}
		lx.advance()
	}
	if isFloat {
		return mk(TokFloatLit), nil
	}
	return mk(TokIntLit), nil
}

func (lx *refLexer) lexCharLit(mk func(TokenKind) Token) (Token, error) {
	lx.advance() // opening quote
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == '\\' {
			lx.advance()
			if lx.off < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if c == '\'' {
			lx.advance()
			return mk(TokCharLit), nil
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return Token{}, lx.errorf("unterminated character literal")
}

func (lx *refLexer) lexStringLit(mk func(TokenKind) Token) (Token, error) {
	lx.advance() // opening quote
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == '\\' {
			lx.advance()
			if lx.off < len(lx.src) {
				lx.advance()
			}
			continue
		}
		if c == '"' {
			lx.advance()
			return mk(TokStringLit), nil
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return Token{}, lx.errorf("unterminated string literal")
}

// refPunct3, refPunct2, refPunct1 map spellings to kinds, longest match first.
var refPunct3 = map[string]TokenKind{"<<=": TokShlEq, ">>=": TokShrEq, "...": TokEllipsis}

var refPunct2 = map[string]TokenKind{
	"->": TokArrow, "++": TokPlusPlus, "--": TokMinusMinus,
	"<<": TokShl, ">>": TokShr, "<=": TokLessEq, ">=": TokGreaterEq,
	"==": TokEqEq, "!=": TokNotEq, "&&": TokAmpAmp, "||": TokPipePipe,
	"+=": TokPlusEq, "-=": TokMinusEq, "*=": TokStarEq, "/=": TokSlashEq,
	"%=": TokPercentEq, "&=": TokAmpEq, "|=": TokPipeEq, "^=": TokCaretEq,
}

var refPunct1 = map[byte]TokenKind{
	'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
	'[': TokLBracket, ']': TokRBracket, ';': TokSemi, ',': TokComma,
	':': TokColon, '?': TokQuestion, '+': TokPlus, '-': TokMinus,
	'*': TokStar, '/': TokSlash, '%': TokPercent, '&': TokAmp,
	'|': TokPipe, '^': TokCaret, '~': TokTilde, '!': TokBang,
	'<': TokLess, '>': TokGreater, '=': TokAssign, '.': TokDot,
}

func (lx *refLexer) lexPunct(mk func(TokenKind) Token) (Token, error) {
	if lx.off+3 <= len(lx.src) {
		if k, ok := refPunct3[lx.src[lx.off:lx.off+3]]; ok {
			lx.advance()
			lx.advance()
			lx.advance()
			return mk(k), nil
		}
	}
	if lx.off+2 <= len(lx.src) {
		if k, ok := refPunct2[lx.src[lx.off:lx.off+2]]; ok {
			lx.advance()
			lx.advance()
			return mk(k), nil
		}
	}
	if k, ok := refPunct1[lx.peek()]; ok {
		lx.advance()
		return mk(k), nil
	}
	c := lx.peek()
	lx.advance()
	return Token{}, lx.errorf("unexpected character %q", string(rune(c)))
}

// refKeywords is the former keyword set.
var refKeywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "extern": true,
	"float": true, "for": true, "goto": true, "if": true,
	"inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true,
	"_Bool": true, "_Complex": true, "_Imaginary": true,
	"__restrict": true, "__inline": true, "__volatile__": true,
	"__const": true, "__signed__": true, "__extension__": true,
}

// refTokenNames is the former token-name table.
var refTokenNames = map[TokenKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokKeyword: "keyword",
	TokIntLit: "integer literal", TokFloatLit: "float literal",
	TokCharLit: "char literal", TokStringLit: "string literal",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokSemi: ";", TokComma: ",",
	TokColon: ":", TokQuestion: "?", TokEllipsis: "...",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokPercent: "%", TokAmp: "&", TokPipe: "|", TokCaret: "^",
	TokTilde: "~", TokBang: "!", TokLess: "<", TokGreater: ">",
	TokAssign: "=", TokDot: ".", TokArrow: "->", TokPlusPlus: "++",
	TokMinusMinus: "--", TokShl: "<<", TokShr: ">>", TokLessEq: "<=",
	TokGreaterEq: ">=", TokEqEq: "==", TokNotEq: "!=", TokAmpAmp: "&&",
	TokPipePipe: "||", TokPlusEq: "+=", TokMinusEq: "-=", TokStarEq: "*=",
	TokSlashEq: "/=", TokPercentEq: "%=", TokAmpEq: "&=", TokPipeEq: "|=",
	TokCaretEq: "^=", TokShlEq: "<<=", TokShrEq: ">>=",
}

// refTypeSpecKeywords is the former declaration-specifier keyword set.
var refTypeSpecKeywords = map[string]bool{
	"void": true, "char": true, "short": true, "int": true, "long": true,
	"float": true, "double": true, "signed": true, "unsigned": true,
	"_Bool": true, "_Complex": true, "struct": true, "union": true,
	"enum": true, "const": true, "volatile": true, "restrict": true,
	"static": true, "extern": true, "typedef": true, "register": true,
	"auto": true, "inline": true, "__restrict": true, "__inline": true,
	"__const": true, "__signed__": true, "__extension__": true,
	"__volatile__": true,
}

// refAssignOps, refBinPrec and refUnaryOps are the former operator tables.
var refAssignOps = map[TokenKind]BinOp{
	TokAssign: BinAssign, TokPlusEq: BinAddAssign, TokMinusEq: BinSubAssign,
	TokStarEq: BinMulAssign, TokSlashEq: BinDivAssign,
	TokPercentEq: BinRemAssign, TokAmpEq: BinAndAssign,
	TokPipeEq: BinOrAssign, TokCaretEq: BinXorAssign,
	TokShlEq: BinShlAssign, TokShrEq: BinShrAssign,
}

var refBinPrec = map[TokenKind]binPrecEntry{
	TokStar: {BinMul, 10}, TokSlash: {BinDiv, 10}, TokPercent: {BinRem, 10},
	TokPlus: {BinAdd, 9}, TokMinus: {BinSub, 9},
	TokShl: {BinShl, 8}, TokShr: {BinShr, 8},
	TokLess: {BinLT, 7}, TokGreater: {BinGT, 7},
	TokLessEq: {BinLE, 7}, TokGreaterEq: {BinGE, 7},
	TokEqEq: {BinEQ, 6}, TokNotEq: {BinNE, 6},
	TokAmp: {BinAnd, 5}, TokCaret: {BinXor, 4}, TokPipe: {BinOr, 3},
	TokAmpAmp: {BinLAnd, 2}, TokPipePipe: {BinLOr, 1},
}

var refUnaryOps = map[TokenKind]UnOp{
	TokPlus: UnPlus, TokMinus: UnMinus, TokTilde: UnNot, TokBang: UnLNot,
	TokStar: UnDeref, TokAmp: UnAddr,
}

// refWalk is the former closure-driven walk.
func refWalk(n Node, v Visitor) {
	if n == nil || isNilNode(n) {
		return
	}
	if !v(n) {
		return
	}
	refEachChild(n, func(c Node) { refWalk(c, v) })
}

// refEachChild, refChildren and refBuildParents are the former child
// enumerator, Children and parent-map builder.
func refEachChild(n Node, f func(Node)) {
	emit := func(c Node) {
		if c != nil && !isNilNode(c) {
			f(c)
		}
	}
	switch x := n.(type) {
	case *TranslationUnit:
		for _, d := range x.Decls {
			emit(d)
		}
	case *FunctionDecl:
		for _, pv := range x.Params {
			emit(pv)
		}
		if x.Body != nil {
			emit(x.Body)
		}
	case *VarDecl:
		if x.Init != nil {
			emit(x.Init)
		}
	case *RecordDecl:
		for _, fd := range x.Fields {
			emit(fd)
		}
	case *EnumDecl:
		for _, c := range x.Constants {
			emit(c)
		}
	case *EnumConstantDecl:
		if x.Value != nil {
			emit(x.Value)
		}
	case *CompoundStmt:
		for _, s := range x.Stmts {
			emit(s)
		}
	case *DeclStmt:
		for _, d := range x.Decls {
			emit(d)
		}
	case *ExprStmt:
		emit(x.X)
	case *IfStmt:
		emit(x.Cond)
		emit(x.Then)
		if x.Else != nil {
			emit(x.Else)
		}
	case *WhileStmt:
		emit(x.Cond)
		emit(x.Body)
	case *DoStmt:
		emit(x.Body)
		emit(x.Cond)
	case *ForStmt:
		if x.Init != nil {
			emit(x.Init)
		}
		if x.Cond != nil {
			emit(x.Cond)
		}
		if x.Post != nil {
			emit(x.Post)
		}
		emit(x.Body)
	case *SwitchStmt:
		emit(x.Cond)
		emit(x.Body)
	case *CaseStmt:
		emit(x.Value)
		if x.Body != nil {
			emit(x.Body)
		}
	case *DefaultStmt:
		if x.Body != nil {
			emit(x.Body)
		}
	case *ReturnStmt:
		if x.Value != nil {
			emit(x.Value)
		}
	case *LabelStmt:
		if x.Body != nil {
			emit(x.Body)
		}
	case *BinaryOperator:
		emit(x.LHS)
		emit(x.RHS)
	case *UnaryOperator:
		emit(x.X)
	case *CallExpr:
		emit(x.Fn)
		for _, a := range x.Args {
			emit(a)
		}
	case *ArraySubscriptExpr:
		emit(x.Base)
		emit(x.Index)
	case *MemberExpr:
		emit(x.Base)
	case *CastExpr:
		emit(x.X)
	case *ConditionalExpr:
		emit(x.Cond)
		emit(x.Then)
		emit(x.Else)
	case *ParenExpr:
		emit(x.X)
	case *SizeofExpr:
		if x.X != nil {
			emit(x.X)
		}
	case *InitListExpr:
		for _, e := range x.Inits {
			emit(e)
		}
	case *CompoundLiteralExpr:
		emit(x.Init)
	case *CommaExpr:
		emit(x.LHS)
		emit(x.RHS)
	}
}

func refChildren(n Node) []Node {
	var out []Node
	refEachChild(n, func(c Node) { out = append(out, c) })
	return out
}

func refBuildParents(pm map[Node]Node, n Node) {
	refEachChild(n, func(c Node) {
		pm[c] = n
		refBuildParents(pm, c)
	})
}
