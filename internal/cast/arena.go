package cast

// Arena is a reset-and-reuse allocator for everything one parse+check
// produces: AST nodes, type objects, and the exact-size child lists that
// hang off them. It extends the token/edit pools in pool.go to the whole
// tree, so re-parsing a mutant on the fuzzing hot path costs zero
// steady-state heap allocations once the arena has grown to the working
// set.
//
// Ownership rules (see docs/PERFORMANCE.md and docs/ARCHITECTURE.md):
//
//   - Everything reachable from a TranslationUnit returned by
//     ParseWithArena/ParseAndCheckArena is owned by the arena and is
//     valid only until the next Reset — its node table included.
//   - Reset is the caller's statement that no node from the previous
//     parse is referenced anymore. Per-stream compile contexts reset at
//     the top of each compile; nothing may hold a node across that
//     boundary (retain the *source text*, not the tree).
//   - An Arena is not safe for concurrent use. One arena per stream —
//     the same discipline as the stream RNG and the scheduler posterior.
//   - Parse/ParseAndCheck (no arena argument) allocate a private arena
//     that is never reset, so their TUs remain safe to retain and share
//     (the parse cache depends on this).
type Arena struct {
	// Node slabs, one per concrete AST node type.
	translationUnits slab[TranslationUnit]
	functionDecls    slab[FunctionDecl]
	varDecls         slab[VarDecl]
	parmVarDecls     slab[ParmVarDecl]
	fieldDecls       slab[FieldDecl]
	recordDecls      slab[RecordDecl]
	enumDecls        slab[EnumDecl]
	enumConstants    slab[EnumConstantDecl]
	typedefDecls     slab[TypedefDecl]

	compoundStmts slab[CompoundStmt]
	declStmts     slab[DeclStmt]
	exprStmts     slab[ExprStmt]
	ifStmts       slab[IfStmt]
	whileStmts    slab[WhileStmt]
	doStmts       slab[DoStmt]
	forStmts      slab[ForStmt]
	switchStmts   slab[SwitchStmt]
	caseStmts     slab[CaseStmt]
	defaultStmts  slab[DefaultStmt]
	breakStmts    slab[BreakStmt]
	continueStmts slab[ContinueStmt]
	returnStmts   slab[ReturnStmt]
	gotoStmts     slab[GotoStmt]
	labelStmts    slab[LabelStmt]
	nullStmts     slab[NullStmt]

	intLits      slab[IntegerLiteral]
	floatLits    slab[FloatingLiteral]
	charLits     slab[CharLiteral]
	stringLits   slab[StringLiteral]
	declRefs     slab[DeclRefExpr]
	binaryOps    slab[BinaryOperator]
	unaryOps     slab[UnaryOperator]
	callExprs    slab[CallExpr]
	subscripts   slab[ArraySubscriptExpr]
	memberExprs  slab[MemberExpr]
	castExprs    slab[CastExpr]
	condExprs    slab[ConditionalExpr]
	parenExprs   slab[ParenExpr]
	sizeofExprs  slab[SizeofExpr]
	initLists    slab[InitListExpr]
	compoundLits slab[CompoundLiteralExpr]
	commaExprs   slab[CommaExpr]

	// Type-object slabs (BasicType instances are interned globally in
	// types.go and never arena-allocated).
	pointerTypes slab[PointerType]
	arrayTypes   slab[ArrayType]
	funcTypes    slab[FuncType]
	typedefTypes slab[TypedefType]
	recordTypes  slab[RecordType]
	enumTypes    slab[EnumType]

	// Child-list arenas: exact-size slices cut from the scratch stacks.
	declLists  listArena[Decl]
	stmtLists  listArena[Stmt]
	exprLists  listArena[Expr]
	parmLists  listArena[*ParmVarDecl]
	fieldLists listArena[*FieldDecl]
	enumLists  listArena[*EnumConstantDecl]
	qtLists    listArena[QualType]

	// Scratch stacks for building child lists with mark/cut discipline
	// (recursive productions push onto the shared stack and cut only
	// their own tail, so nesting composes).
	scDecls  []Decl
	scStmts  []Stmt
	scExprs  []Expr
	scParms  []*ParmVarDecl
	scFields []*FieldDecl
	scEnums  []*EnumConstantDecl
	scQTs    []QualType

	// strMemo caches decoded string-literal bodies keyed by their source
	// spelling. It survives Reset: entries are plain strings derived only
	// from the spelling, and mutants of one seed share most literals.
	strMemo map[string]string

	// ptrMemo dedups pointer types created during Check (array/function
	// decay, address-of). Values are arena-owned, so Reset clears it.
	ptrMemo map[QualType]*PointerType

	// tblOrder and tblLinks back the node tables of the units parsed
	// into this arena (BuildTable cuts each unit's table off their
	// tails); Reset truncates them.
	tblOrder []Node
	tblLinks []link
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset recycles the arena for the next parse. Every node, type and
// child list handed out since the last Reset becomes invalid.
func (a *Arena) Reset() {
	a.translationUnits.reset()
	a.functionDecls.reset()
	a.varDecls.reset()
	a.parmVarDecls.reset()
	a.fieldDecls.reset()
	a.recordDecls.reset()
	a.enumDecls.reset()
	a.enumConstants.reset()
	a.typedefDecls.reset()
	a.compoundStmts.reset()
	a.declStmts.reset()
	a.exprStmts.reset()
	a.ifStmts.reset()
	a.whileStmts.reset()
	a.doStmts.reset()
	a.forStmts.reset()
	a.switchStmts.reset()
	a.caseStmts.reset()
	a.defaultStmts.reset()
	a.breakStmts.reset()
	a.continueStmts.reset()
	a.returnStmts.reset()
	a.gotoStmts.reset()
	a.labelStmts.reset()
	a.nullStmts.reset()
	a.intLits.reset()
	a.floatLits.reset()
	a.charLits.reset()
	a.stringLits.reset()
	a.declRefs.reset()
	a.binaryOps.reset()
	a.unaryOps.reset()
	a.callExprs.reset()
	a.subscripts.reset()
	a.memberExprs.reset()
	a.castExprs.reset()
	a.condExprs.reset()
	a.parenExprs.reset()
	a.sizeofExprs.reset()
	a.initLists.reset()
	a.compoundLits.reset()
	a.commaExprs.reset()
	a.pointerTypes.reset()
	a.arrayTypes.reset()
	a.funcTypes.reset()
	a.typedefTypes.reset()
	a.recordTypes.reset()
	a.enumTypes.reset()
	a.declLists.reset()
	a.stmtLists.reset()
	a.exprLists.reset()
	a.parmLists.reset()
	a.fieldLists.reset()
	a.enumLists.reset()
	a.qtLists.reset()
	a.scDecls = a.scDecls[:0]
	a.scStmts = a.scStmts[:0]
	a.scExprs = a.scExprs[:0]
	a.scParms = a.scParms[:0]
	a.scFields = a.scFields[:0]
	a.scEnums = a.scEnums[:0]
	a.scQTs = a.scQTs[:0]
	a.tblOrder = a.tblOrder[:0]
	a.tblLinks = a.tblLinks[:0]
	if a.ptrMemo != nil {
		clear(a.ptrMemo)
	}
	// strMemo deliberately survives: values are independent strings.
}

// decodeString returns the decoded body of a string-literal spelling,
// memoized so repeated parses of the same literal stop allocating.
func (a *Arena) decodeString(text string) string {
	if a.strMemo == nil {
		a.strMemo = make(map[string]string, 16)
	}
	if v, ok := a.strMemo[text]; ok {
		return v
	}
	if len(a.strMemo) >= strMemoCap {
		return decodeStringLit(text) // memo full: decode without caching
	}
	v := decodeStringLit(text)
	a.strMemo[text] = v
	return v
}

// strMemoCap bounds the string memo so pathological campaigns cannot
// grow it without limit.
const strMemoCap = 4096

// pointerTo returns an arena-owned pointer type to elem, deduped so the
// checker's decay/address-of paths stop allocating per expression.
func (a *Arena) pointerTo(elem QualType) *PointerType {
	if a.ptrMemo == nil {
		a.ptrMemo = make(map[QualType]*PointerType, 8)
	}
	if pt, ok := a.ptrMemo[elem]; ok {
		return pt
	}
	pt := a.pointerTypes.get()
	pt.Elem = elem
	a.ptrMemo[elem] = pt
	return pt
}

// decay mirrors QualType.Decay with arena-owned (and deduped) pointer
// types, for the parser's parameter adjustment and the checker's
// lvalue-conversion paths.
func (a *Arena) decay(qt QualType) QualType {
	switch t := qt.Canonical().T.(type) {
	case *ArrayType:
		return QualType{T: a.pointerTo(t.Elem)}
	case *FuncType:
		return QualType{T: a.pointerTo(QualType{T: t})}
	}
	return qt
}

// ---------------------------------------------------------------------
// slab: typed bump allocator with geometric chunk growth
// ---------------------------------------------------------------------

// slabBaseChunk is the first chunk's element count; chunks double up to
// slabMaxChunk, so small one-shot parses waste little while reused
// arenas converge on large chunks.
const (
	slabBaseChunk = 8
	slabMaxChunk  = 1024
)

type slab[T any] struct {
	chunks [][]T
	ci     int // index of the chunk currently being bumped
	off    int // next free slot in chunks[ci]
}

// get returns a zeroed *T owned by the slab.
func (s *slab[T]) get() *T {
	for {
		if s.ci == len(s.chunks) {
			n := slabBaseChunk << s.ci
			if n > slabMaxChunk || n <= 0 {
				n = slabMaxChunk
			}
			s.chunks = append(s.chunks, make([]T, n))
		}
		if c := s.chunks[s.ci]; s.off < len(c) {
			p := &c[s.off]
			s.off++
			var zero T
			*p = zero
			return p
		}
		s.ci++
		s.off = 0
	}
}

func (s *slab[T]) reset() { s.ci, s.off = 0, 0 }

// ---------------------------------------------------------------------
// listArena: exact-size slice storage
// ---------------------------------------------------------------------

const (
	listBaseChunk = 32
	listMaxChunk  = 1024
	// listDedicated is the length above which a list gets its own heap
	// slice instead of arena space (rare; keeps chunks dense).
	listDedicated = 512
)

type listArena[T any] struct {
	chunks [][]T
	ci     int
	off    int
}

// save copies src into arena-owned storage, returning a full-capacity
// slice (append never bleeds into a neighbor).
func (a *listArena[T]) save(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > listDedicated {
		out := make([]T, n)
		copy(out, src)
		return out
	}
	for {
		if a.ci == len(a.chunks) {
			sz := listBaseChunk << a.ci
			if sz > listMaxChunk || sz <= 0 {
				sz = listMaxChunk
			}
			if sz < n {
				sz = n
			}
			a.chunks = append(a.chunks, make([]T, sz))
		}
		if c := a.chunks[a.ci]; a.off+n <= len(c) {
			out := c[a.off : a.off+n : a.off+n]
			a.off += n
			copy(out, src)
			return out
		}
		a.ci++
		a.off = 0
	}
}

func (a *listArena[T]) reset() { a.ci, a.off = 0, 0 }

// cutList copies the tail of a scratch stack (everything past mark) into
// arena storage and truncates the stack back to mark — the finish step
// of the mark/push/cut list-building discipline.
func cutList[T any](la *listArena[T], buf *[]T, mark int) []T {
	out := la.save((*buf)[mark:])
	*buf = (*buf)[:mark]
	return out
}
