package cast

import "fmt"

// LexError describes a lexical error at a source position.
type LexError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("%d:%d: lex error: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes C source text. Preprocessor directives are skipped
// line-wise (seeds are expected to be preprocessed or directive-free);
// comments are skipped.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Reset rewinds the lexer onto new source text, equivalent to (but
// cheaper than) allocating a fresh lexer — the compile hot loop lexes
// one mutant per iteration and reuses a single Lexer per stream.
func (lx *Lexer) Reset(src string) {
	lx.src, lx.off, lx.line, lx.col = src, 0, 1, 1
}

// Lex tokenizes the whole input, returning the token stream terminated by
// a TokEOF token.
func Lex(src string) ([]Token, error) { return lexInto(src, nil) }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
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

func (lx *Lexer) errorf(format string, args ...any) error {
	return &LexError{Pos: lx.off, Line: lx.line, Col: lx.col,
		Msg: fmt.Sprintf(format, args...)}
}

// skipTrivia consumes whitespace, comments and preprocessor lines.
func (lx *Lexer) skipTrivia() error {
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

func (lx *Lexer) atLineStart() bool {
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

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipTrivia(); err != nil {
		return Token{}, err
	}
	start, line, col := lx.off, lx.line, lx.col
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start, End: start, Line: line, Col: col}, nil
	}
	var k TokenKind
	var err error
	switch c := lx.src[lx.off]; {
	case isIdentStart(c):
		k = lx.lexIdent()
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		k = lx.lexNumber()
	case c == '\'':
		k, err = lx.lexQuoted('\'', TokCharLit, "character")
	case c == '"':
		k, err = lx.lexQuoted('"', TokStringLit, "string")
	default:
		k, err = lx.lexPunct()
	}
	if err != nil {
		return Token{}, err
	}
	return Token{Kind: k, Text: lx.src[start:lx.off], Pos: start,
		End: lx.off, Line: line, Col: col}, nil
}

// skip consumes n bytes known to hold no newline.
func (lx *Lexer) skip(n int) {
	lx.off += n
	lx.col += n
}

func (lx *Lexer) lexIdent() TokenKind {
	end := lx.off + 1
	for end < len(lx.src) && isIdentCont(lx.src[end]) {
		end++
	}
	text := lx.src[lx.off:end]
	lx.skip(end - lx.off)
	if IsKeyword(text) {
		return TokKeyword
	}
	return TokIdent
}

func (lx *Lexer) lexNumber() TokenKind {
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
suffixes:
	for lx.off < len(lx.src) {
		switch lx.peek() {
		case 'f', 'F':
			isFloat = true
		case 'u', 'U', 'l', 'L':
		default:
			break suffixes
		}
		lx.advance()
	}
	if isFloat {
		return TokFloatLit
	}
	return TokIntLit
}

// lexQuoted lexes a character or string literal opened by quote; a
// backslash escapes the next byte, and a newline or the end of input
// before the closing quote is an error.
func (lx *Lexer) lexQuoted(quote byte, k TokenKind, what string) (TokenKind, error) {
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
		if c == quote {
			lx.advance()
			return k, nil
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return 0, lx.errorf("unterminated %s literal", what)
}

// lexPunct lexes a punctuator by its first byte, longest match first.
func (lx *Lexer) lexPunct() (TokenKind, error) {
	c, c1 := lx.src[lx.off], lx.peekAt(1)
	k, n := TokEOF, 1
	switch c {
	case '(':
		k = TokLParen
	case ')':
		k = TokRParen
	case '{':
		k = TokLBrace
	case '}':
		k = TokRBrace
	case '[':
		k = TokLBracket
	case ']':
		k = TokRBracket
	case ';':
		k = TokSemi
	case ',':
		k = TokComma
	case ':':
		k = TokColon
	case '?':
		k = TokQuestion
	case '~':
		k = TokTilde
	case '.':
		if c1 == '.' && lx.peekAt(2) == '.' {
			k, n = TokEllipsis, 3
		} else {
			k = TokDot
		}
	case '+':
		switch c1 {
		case '+':
			k, n = TokPlusPlus, 2
		default:
			k, n = withEq(c1, TokPlusEq, TokPlus)
		}
	case '-':
		switch c1 {
		case '>':
			k, n = TokArrow, 2
		case '-':
			k, n = TokMinusMinus, 2
		default:
			k, n = withEq(c1, TokMinusEq, TokMinus)
		}
	case '&':
		switch c1 {
		case '&':
			k, n = TokAmpAmp, 2
		default:
			k, n = withEq(c1, TokAmpEq, TokAmp)
		}
	case '|':
		switch c1 {
		case '|':
			k, n = TokPipePipe, 2
		default:
			k, n = withEq(c1, TokPipeEq, TokPipe)
		}
	case '<':
		switch {
		case c1 == '<' && lx.peekAt(2) == '=':
			k, n = TokShlEq, 3
		case c1 == '<':
			k, n = TokShl, 2
		default:
			k, n = withEq(c1, TokLessEq, TokLess)
		}
	case '>':
		switch {
		case c1 == '>' && lx.peekAt(2) == '=':
			k, n = TokShrEq, 3
		case c1 == '>':
			k, n = TokShr, 2
		default:
			k, n = withEq(c1, TokGreaterEq, TokGreater)
		}
	case '*':
		k, n = withEq(c1, TokStarEq, TokStar)
	case '/':
		k, n = withEq(c1, TokSlashEq, TokSlash)
	case '%':
		k, n = withEq(c1, TokPercentEq, TokPercent)
	case '^':
		k, n = withEq(c1, TokCaretEq, TokCaret)
	case '!':
		k, n = withEq(c1, TokNotEq, TokBang)
	case '=':
		k, n = withEq(c1, TokEqEq, TokAssign)
	default:
		lx.advance()
		return 0, lx.errorf("unexpected character %q", string(rune(c)))
	}
	lx.skip(n)
	return k, nil
}

// withEq returns long, two bytes wide, when next is '=', else the
// one-byte short.
func withEq(next byte, long, short TokenKind) (TokenKind, int) {
	if next == '=' {
		return long, 2
	}
	return short, 1
}
