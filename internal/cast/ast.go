package cast

// NodeKind discriminates AST node types without reflection. The kinds
// double as the "[Program Structure]" vocabulary of the MetaMut invention
// prompt.
type NodeKind int

// Node kinds, grouped by syntactic class.
const (
	KindTranslationUnit NodeKind = iota

	// Declarations.
	KindFunctionDecl
	KindVarDecl
	KindParmVarDecl
	KindFieldDecl
	KindRecordDecl
	KindEnumDecl
	KindEnumConstantDecl
	KindTypedefDecl

	// Statements.
	KindCompoundStmt
	KindDeclStmt
	KindExprStmt
	KindIfStmt
	KindWhileStmt
	KindDoStmt
	KindForStmt
	KindSwitchStmt
	KindCaseStmt
	KindDefaultStmt
	KindBreakStmt
	KindContinueStmt
	KindReturnStmt
	KindGotoStmt
	KindLabelStmt
	KindNullStmt

	// Expressions.
	KindIntegerLiteral
	KindFloatingLiteral
	KindCharLiteral
	KindStringLiteral
	KindDeclRefExpr
	KindBinaryOperator
	KindUnaryOperator
	KindCallExpr
	KindArraySubscriptExpr
	KindMemberExpr
	KindCastExpr
	KindConditionalExpr
	KindParenExpr
	KindSizeofExpr
	KindInitListExpr
	KindCompoundLiteralExpr
	KindCommaExpr
)

var kindNames = [...]string{
	KindTranslationUnit: "TranslationUnit",
	KindFunctionDecl:    "FunctionDecl", KindVarDecl: "VarDecl",
	KindParmVarDecl: "ParmVarDecl", KindFieldDecl: "FieldDecl",
	KindRecordDecl: "RecordDecl", KindEnumDecl: "EnumDecl",
	KindEnumConstantDecl: "EnumConstantDecl", KindTypedefDecl: "TypedefDecl",
	KindCompoundStmt: "CompoundStmt", KindDeclStmt: "DeclStmt",
	KindExprStmt: "ExprStmt", KindIfStmt: "IfStmt",
	KindWhileStmt: "WhileStmt", KindDoStmt: "DoStmt", KindForStmt: "ForStmt",
	KindSwitchStmt: "SwitchStmt", KindCaseStmt: "CaseStmt",
	KindDefaultStmt: "DefaultStmt", KindBreakStmt: "BreakStmt",
	KindContinueStmt: "ContinueStmt", KindReturnStmt: "ReturnStmt",
	KindGotoStmt: "GotoStmt", KindLabelStmt: "LabelStmt",
	KindNullStmt:       "NullStmt",
	KindIntegerLiteral: "IntegerLiteral", KindFloatingLiteral: "FloatingLiteral",
	KindCharLiteral: "CharLiteral", KindStringLiteral: "StringLiteral",
	KindDeclRefExpr: "DeclRefExpr", KindBinaryOperator: "BinaryOperator",
	KindUnaryOperator: "UnaryOperator", KindCallExpr: "CallExpr",
	KindArraySubscriptExpr: "ArraySubscriptExpr", KindMemberExpr: "MemberExpr",
	KindCastExpr: "CastExpr", KindConditionalExpr: "ConditionalExpr",
	KindParenExpr: "ParenExpr", KindSizeofExpr: "SizeofExpr",
	KindInitListExpr: "InitListExpr", KindCompoundLiteralExpr: "CompoundLiteralExpr",
	KindCommaExpr: "CommaExpr",
}

// String returns the Clang-style node-kind name.
func (k NodeKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "UnknownNode"
}

// SourceRange is a half-open byte-offset range [Begin, End) into the
// original source buffer.
type SourceRange struct {
	Begin int
	End   int
}

// Len returns the number of bytes covered by the range.
func (r SourceRange) Len() int { return r.End - r.Begin }

// Contains reports whether r fully contains other.
func (r SourceRange) Contains(other SourceRange) bool {
	return r.Begin <= other.Begin && other.End <= r.End
}

// Node is the interface implemented by every AST node. Only this
// package's node types implement it: the node table stamps each node's
// index through nodeBase.
type Node interface {
	Kind() NodeKind
	Range() SourceRange
	nodeBase() *base
}

// Expr is implemented by expression nodes; Type returns the node's
// semantic type (nil before Sema runs).
type Expr interface {
	Node
	Type() QualType
	exprNode()
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is implemented by declaration nodes.
type Decl interface {
	Node
	DeclName() string
	declNode()
}

// base carries the source extent shared by all nodes, and the node's
// index in its unit's node table (see table.go).
type base struct {
	Rng SourceRange
	idx int32
}

func (b *base) Range() SourceRange { return b.Rng }

func (b *base) nodeBase() *base { return b }

// SetRange updates a node's source extent (used by the parser).
func (b *base) SetRange(begin, end int) { b.Rng = SourceRange{begin, end} }

type exprBase struct {
	base
	Ty QualType
}

func (e *exprBase) Type() QualType { return e.Ty }

// SetType annotates the expression with its semantic type.
func (e *exprBase) SetType(t QualType) { e.Ty = t }

func (e *exprBase) exprNode() {}

type stmtBase struct{ base }

func (s *stmtBase) stmtNode() {}

type declBase struct{ base }

func (d *declBase) declNode() {}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

// TranslationUnit is the root of a parsed file.
type TranslationUnit struct {
	base
	Decls []Decl
	// Source is the original text the ranges index into.
	Source string
	// arena owns every node reachable from this unit when it was built
	// by ParseWithArena; nil for units assembled by hand. See Arena for
	// the ownership rules.
	arena *Arena
	// order and links are the unit's node table, filled by BuildTable
	// (see table.go); nil until then.
	order []Node
	links []link
}

// Arena returns the arena that owns this unit's nodes, or nil when the
// unit was not arena-parsed.
func (tu *TranslationUnit) Arena() *Arena { return tu.arena }

func (*TranslationUnit) Kind() NodeKind { return KindTranslationUnit }

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

// StorageClass is the declaration storage-class specifier.
type StorageClass int

// Storage classes.
const (
	StorageNone StorageClass = iota
	StorageStatic
	StorageExtern
	StorageTypedef
	StorageRegister
	StorageAuto
)

func (s StorageClass) String() string {
	switch s {
	case StorageStatic:
		return "static"
	case StorageExtern:
		return "extern"
	case StorageTypedef:
		return "typedef"
	case StorageRegister:
		return "register"
	case StorageAuto:
		return "auto"
	}
	return ""
}

// FunctionDecl is a function definition or prototype.
type FunctionDecl struct {
	declBase
	Name    string
	Ret     QualType
	Params  []*ParmVarDecl
	Body    *CompoundStmt // nil for prototypes
	Storage StorageClass
	Inline  bool
	// Variadic is true for prototypes ending in "...".
	Variadic bool
	// RetTypeRange is the extent of the return-type spelling, for
	// Rewriter-based return-type mutations.
	RetTypeRange SourceRange
	// NameRange is the extent of the declared name.
	NameRange SourceRange
	// cachedType memoizes the FuncType the checker derives from this
	// declaration so DeclRef checking stops rebuilding it per reference.
	// Builtin declarations precompute it at init; arena-parsed decls fill
	// it lazily (single-goroutine by the arena contract).
	cachedType *FuncType
}

func (*FunctionDecl) Kind() NodeKind       { return KindFunctionDecl }
func (d *FunctionDecl) DeclName() string   { return d.Name }
func (d *FunctionDecl) IsDefinition() bool { return d.Body != nil }

// VarDecl is a global or local variable declaration.
type VarDecl struct {
	declBase
	Name    string
	Ty      QualType
	Init    Expr // nil when absent
	Storage StorageClass
	// IsGlobal is true for file-scope variables.
	IsGlobal bool
	// NameRange is the extent of the declared name.
	NameRange SourceRange
	// InitRange is the extent of the initializer expression, when present.
	InitRange SourceRange
	// TypeRange is the extent of the declaration-specifier spelling.
	TypeRange SourceRange
}

func (*VarDecl) Kind() NodeKind     { return KindVarDecl }
func (d *VarDecl) DeclName() string { return d.Name }

// ParmVarDecl is a function parameter.
type ParmVarDecl struct {
	declBase
	Name string // may be empty in prototypes
	Ty   QualType
	// Index is the zero-based parameter position.
	Index int
}

func (*ParmVarDecl) Kind() NodeKind     { return KindParmVarDecl }
func (d *ParmVarDecl) DeclName() string { return d.Name }

// FieldDecl is a struct or union member.
type FieldDecl struct {
	declBase
	Name string
	Ty   QualType
}

func (*FieldDecl) Kind() NodeKind     { return KindFieldDecl }
func (d *FieldDecl) DeclName() string { return d.Name }

// RecordDecl declares a struct or union type.
type RecordDecl struct {
	declBase
	Name    string // tag; may be empty for anonymous records
	IsUnion bool
	Fields  []*FieldDecl
	// Complete is false for forward declarations.
	Complete bool
}

func (*RecordDecl) Kind() NodeKind     { return KindRecordDecl }
func (d *RecordDecl) DeclName() string { return d.Name }

// EnumDecl declares an enum type.
type EnumDecl struct {
	declBase
	Name      string
	Constants []*EnumConstantDecl
}

func (*EnumDecl) Kind() NodeKind     { return KindEnumDecl }
func (d *EnumDecl) DeclName() string { return d.Name }

// EnumConstantDecl is a single enumerator.
type EnumConstantDecl struct {
	declBase
	Name  string
	Value Expr // explicit value, or nil
	// Num is the resolved constant value (set by Sema).
	Num int64
}

func (*EnumConstantDecl) Kind() NodeKind     { return KindEnumConstantDecl }
func (d *EnumConstantDecl) DeclName() string { return d.Name }

// TypedefDecl introduces a type alias.
type TypedefDecl struct {
	declBase
	Name string
	Ty   QualType
}

func (*TypedefDecl) Kind() NodeKind     { return KindTypedefDecl }
func (d *TypedefDecl) DeclName() string { return d.Name }

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

// CompoundStmt is a brace-enclosed block.
type CompoundStmt struct {
	stmtBase
	Stmts []Stmt
}

func (*CompoundStmt) Kind() NodeKind { return KindCompoundStmt }

// DeclStmt wraps one or more local declarations that share a specifier.
type DeclStmt struct {
	stmtBase
	Decls []Decl
}

func (*DeclStmt) Kind() NodeKind { return KindDeclStmt }

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

func (*ExprStmt) Kind() NodeKind { return KindExprStmt }

// IfStmt is an if/else statement.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
}

func (*IfStmt) Kind() NodeKind { return KindIfStmt }

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

func (*WhileStmt) Kind() NodeKind { return KindWhileStmt }

// DoStmt is a do/while loop.
type DoStmt struct {
	stmtBase
	Body Stmt
	Cond Expr
}

func (*DoStmt) Kind() NodeKind { return KindDoStmt }

// ForStmt is a for loop. Init may be a DeclStmt or ExprStmt; any of the
// three clauses may be nil.
type ForStmt struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

func (*ForStmt) Kind() NodeKind { return KindForStmt }

// SwitchStmt is a switch statement.
type SwitchStmt struct {
	stmtBase
	Cond Expr
	Body Stmt // usually a CompoundStmt containing Case/Default stmts
}

func (*SwitchStmt) Kind() NodeKind { return KindSwitchStmt }

// CaseStmt is a case label and its immediately following statement.
type CaseStmt struct {
	stmtBase
	Value Expr
	Body  Stmt // may be nil for stacked labels
}

func (*CaseStmt) Kind() NodeKind { return KindCaseStmt }

// DefaultStmt is a default label.
type DefaultStmt struct {
	stmtBase
	Body Stmt
}

func (*DefaultStmt) Kind() NodeKind { return KindDefaultStmt }

// BreakStmt is a break statement.
type BreakStmt struct{ stmtBase }

func (*BreakStmt) Kind() NodeKind { return KindBreakStmt }

// ContinueStmt is a continue statement.
type ContinueStmt struct{ stmtBase }

func (*ContinueStmt) Kind() NodeKind { return KindContinueStmt }

// ReturnStmt is a return statement with an optional value.
type ReturnStmt struct {
	stmtBase
	Value Expr // nil for bare "return;"
}

func (*ReturnStmt) Kind() NodeKind { return KindReturnStmt }

// GotoStmt is a goto to a named label.
type GotoStmt struct {
	stmtBase
	Label string
}

func (*GotoStmt) Kind() NodeKind { return KindGotoStmt }

// LabelStmt is a named label and its following statement.
type LabelStmt struct {
	stmtBase
	Name string
	Body Stmt
}

func (*LabelStmt) Kind() NodeKind { return KindLabelStmt }

// NullStmt is a lone semicolon.
type NullStmt struct{ stmtBase }

func (*NullStmt) Kind() NodeKind { return KindNullStmt }

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// IntegerLiteral is an integer constant. Value holds the parsed value.
type IntegerLiteral struct {
	exprBase
	Value int64
	Text  string // original spelling (keeps hex/suffixes)
}

func (*IntegerLiteral) Kind() NodeKind { return KindIntegerLiteral }

// FloatingLiteral is a floating constant.
type FloatingLiteral struct {
	exprBase
	Value float64
	Text  string
}

func (*FloatingLiteral) Kind() NodeKind { return KindFloatingLiteral }

// CharLiteral is a character constant.
type CharLiteral struct {
	exprBase
	Value byte
	Text  string
}

func (*CharLiteral) Kind() NodeKind { return KindCharLiteral }

// StringLiteral is a string constant.
type StringLiteral struct {
	exprBase
	Value string // decoded content (without quotes)
	Text  string // original spelling (with quotes)
}

func (*StringLiteral) Kind() NodeKind { return KindStringLiteral }

// DeclRefExpr is a use of a declared name. Ref is resolved by Sema and may
// be a *VarDecl, *ParmVarDecl, *FunctionDecl or *EnumConstantDecl.
type DeclRefExpr struct {
	exprBase
	Name string
	Ref  Decl
}

func (*DeclRefExpr) Kind() NodeKind { return KindDeclRefExpr }

// BinOp enumerates binary (and compound-assignment) operators.
type BinOp int

// Binary operators, ordered roughly by precedence group.
const (
	BinMul BinOp = iota
	BinDiv
	BinRem
	BinAdd
	BinSub
	BinShl
	BinShr
	BinLT
	BinGT
	BinLE
	BinGE
	BinEQ
	BinNE
	BinAnd
	BinXor
	BinOr
	BinLAnd
	BinLOr
	BinAssign
	BinMulAssign
	BinDivAssign
	BinRemAssign
	BinAddAssign
	BinSubAssign
	BinShlAssign
	BinShrAssign
	BinAndAssign
	BinXorAssign
	BinOrAssign
)

var binOpSpellings = [...]string{
	BinMul: "*", BinDiv: "/", BinRem: "%", BinAdd: "+", BinSub: "-",
	BinShl: "<<", BinShr: ">>", BinLT: "<", BinGT: ">", BinLE: "<=",
	BinGE: ">=", BinEQ: "==", BinNE: "!=", BinAnd: "&", BinXor: "^",
	BinOr: "|", BinLAnd: "&&", BinLOr: "||", BinAssign: "=",
	BinMulAssign: "*=", BinDivAssign: "/=", BinRemAssign: "%=",
	BinAddAssign: "+=", BinSubAssign: "-=", BinShlAssign: "<<=",
	BinShrAssign: ">>=", BinAndAssign: "&=", BinXorAssign: "^=",
	BinOrAssign: "|=",
}

// String returns the operator's source spelling.
func (op BinOp) String() string { return binOpSpellings[op] }

// IsAssignment reports whether op is "=" or a compound assignment.
func (op BinOp) IsAssignment() bool { return op >= BinAssign }

// IsComparison reports whether op is a relational or equality operator.
func (op BinOp) IsComparison() bool { return op >= BinLT && op <= BinNE }

// IsLogical reports whether op is && or ||.
func (op BinOp) IsLogical() bool { return op == BinLAnd || op == BinLOr }

// IsBitwise reports whether op is a bitwise or shift operator.
func (op BinOp) IsBitwise() bool {
	switch op {
	case BinAnd, BinOr, BinXor, BinShl, BinShr:
		return true
	}
	return false
}

// IsArithmetic reports whether op is + - * / %.
func (op BinOp) IsArithmetic() bool { return op <= BinSub }

// BinaryOperator is a binary or assignment expression.
type BinaryOperator struct {
	exprBase
	Op  BinOp
	LHS Expr
	RHS Expr
	// OpRange is the extent of the operator token.
	OpRange SourceRange
}

func (*BinaryOperator) Kind() NodeKind { return KindBinaryOperator }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators. Post variants are the suffix forms.
const (
	UnPlus UnOp = iota
	UnMinus
	UnNot   // ~
	UnLNot  // !
	UnDeref // *
	UnAddr  // &
	UnPreInc
	UnPreDec
	UnPostInc
	UnPostDec
)

var unOpSpellings = [...]string{
	UnPlus: "+", UnMinus: "-", UnNot: "~", UnLNot: "!", UnDeref: "*",
	UnAddr: "&", UnPreInc: "++", UnPreDec: "--", UnPostInc: "++",
	UnPostDec: "--",
}

// String returns the operator's source spelling.
func (op UnOp) String() string { return unOpSpellings[op] }

// IsPostfix reports whether the operator is written after its operand.
func (op UnOp) IsPostfix() bool { return op == UnPostInc || op == UnPostDec }

// UnaryOperator is a unary expression.
type UnaryOperator struct {
	exprBase
	Op UnOp
	X  Expr
}

func (*UnaryOperator) Kind() NodeKind { return KindUnaryOperator }

// CallExpr is a function call.
type CallExpr struct {
	exprBase
	Fn   Expr
	Args []Expr
	// Callee is the resolved function, when Fn is a direct reference.
	Callee *FunctionDecl
}

func (*CallExpr) Kind() NodeKind { return KindCallExpr }

// ArraySubscriptExpr is base[index].
type ArraySubscriptExpr struct {
	exprBase
	Base  Expr
	Index Expr
}

func (*ArraySubscriptExpr) Kind() NodeKind { return KindArraySubscriptExpr }

// MemberExpr is base.field or base->field.
type MemberExpr struct {
	exprBase
	Base    Expr
	Field   string
	IsArrow bool
	// FieldDecl is resolved by Sema when the record type is known.
	FieldDecl *FieldDecl
}

func (*MemberExpr) Kind() NodeKind { return KindMemberExpr }

// CastExpr is an explicit C cast "(T)x".
type CastExpr struct {
	exprBase
	To QualType
	X  Expr
	// TypeRange covers the parenthesized type spelling.
	TypeRange SourceRange
}

func (*CastExpr) Kind() NodeKind { return KindCastExpr }

// ConditionalExpr is cond ? then : else.
type ConditionalExpr struct {
	exprBase
	Cond Expr
	Then Expr
	Else Expr
}

func (*ConditionalExpr) Kind() NodeKind { return KindConditionalExpr }

// ParenExpr is a parenthesized expression.
type ParenExpr struct {
	exprBase
	X Expr
}

func (*ParenExpr) Kind() NodeKind { return KindParenExpr }

// SizeofExpr is sizeof(expr) or sizeof(type).
type SizeofExpr struct {
	exprBase
	X      Expr     // nil when OfType is set
	OfType QualType // zero when X is set
}

func (*SizeofExpr) Kind() NodeKind { return KindSizeofExpr }

// InitListExpr is a brace initializer list.
type InitListExpr struct {
	exprBase
	Inits []Expr
}

func (*InitListExpr) Kind() NodeKind { return KindInitListExpr }

// CompoundLiteralExpr is "(T){...}".
type CompoundLiteralExpr struct {
	exprBase
	To   QualType
	Init *InitListExpr
}

func (*CompoundLiteralExpr) Kind() NodeKind { return KindCompoundLiteralExpr }

// CommaExpr is "lhs, rhs".
type CommaExpr struct {
	exprBase
	LHS Expr
	RHS Expr
}

func (*CommaExpr) Kind() NodeKind { return KindCommaExpr }
