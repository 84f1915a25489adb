// Package cast implements a C front-end for compiler fuzzing: a lexer, a
// recursive-descent parser for a large C subset, a typed AST with source
// locations, semantic analysis, a Clang-style source rewriter, and a
// pretty-printer.
//
// The package is the substrate under the μAST mutation API
// (internal/muast) and under the simulated compiler (internal/compilersim).
package cast

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds. Punctuation kinds are named after their spelling.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokIntLit
	TokFloatLit
	TokCharLit
	TokStringLit

	TokLParen   // (
	TokRParen   // )
	TokLBrace   // {
	TokRBrace   // }
	TokLBracket // [
	TokRBracket // ]
	TokSemi     // ;
	TokComma    // ,
	TokColon    // :
	TokQuestion // ?
	TokEllipsis // ...

	TokPlus       // +
	TokMinus      // -
	TokStar       // *
	TokSlash      // /
	TokPercent    // %
	TokAmp        // &
	TokPipe       // |
	TokCaret      // ^
	TokTilde      // ~
	TokBang       // !
	TokLess       // <
	TokGreater    // >
	TokAssign     // =
	TokDot        // .
	TokArrow      // ->
	TokPlusPlus   // ++
	TokMinusMinus // --
	TokShl        // <<
	TokShr        // >>
	TokLessEq     // <=
	TokGreaterEq  // >=
	TokEqEq       // ==
	TokNotEq      // !=
	TokAmpAmp     // &&
	TokPipePipe   // ||
	TokPlusEq     // +=
	TokMinusEq    // -=
	TokStarEq     // *=
	TokSlashEq    // /=
	TokPercentEq  // %=
	TokAmpEq      // &=
	TokPipeEq     // |=
	TokCaretEq    // ^=
	TokShlEq      // <<=
	TokShrEq      // >>=
)

var tokenNames = [...]string{
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

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if k >= 0 && int(k) < len(tokenNames) {
		return tokenNames[k]
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with its source extent.
type Token struct {
	Kind TokenKind
	Text string // exact source spelling
	Pos  int    // byte offset of the first character
	End  int    // byte offset one past the last character
	Line int    // 1-based line of Pos
	Col  int    // 1-based column of Pos
}

// Is reports whether the token is the keyword kw.
func (t Token) Is(kw string) bool {
	return t.Kind == TokKeyword && t.Text == kw
}

// IsKeyword reports whether s is a reserved word of the supported C subset.
// GNU-style extension spellings that appear in compiler test suites are
// included so seeds lex cleanly.
func IsKeyword(s string) bool {
	switch s {
	case "auto", "break", "case", "char", "const", "continue", "default",
		"do", "double", "else", "enum", "extern", "float", "for", "goto",
		"if", "inline", "int", "long", "register", "restrict", "return",
		"short", "signed", "sizeof", "static", "struct", "switch",
		"typedef", "union", "unsigned", "void", "volatile", "while",
		"_Bool", "_Complex", "_Imaginary",
		"__restrict", "__inline", "__volatile__", "__const", "__signed__",
		"__extension__":
		return true
	}
	return false
}
