// Package muast implements the paper's μAST API (Figure 6): a simplified
// mutation-oriented facade over the C AST in internal/cast. It provides
// the query, rewriting, semantic-checking and helper primitives that
// MetaMut-generated mutators are written against, plus the mutator
// registry that both the supervised and unsupervised mutator sets
// register into.
package muast

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/icsnju/metamut-go/internal/cast"
)

// DefaultFuel is the μAST work budget for one mutator application:
// every query charges the nodes it returns and every rewrite op charges
// one unit. Well-behaved mutators use a few hundred units on realistic
// programs; a mutator that burns the whole budget is looping.
const DefaultFuel = 1 << 20

// FuelExhausted is the panic value the Manager's fuel watchdog raises
// when a mutator exceeds its work budget. Supervised callers (the
// fuzzers' safeApply) recover it and convert the offense into a
// quarantine strike; it satisfies error for that reporting.
type FuelExhausted struct{ Budget int }

// Error describes the exhausted budget.
func (e FuelExhausted) Error() string {
	return fmt.Sprintf("muast: mutator exhausted its fuel budget (%d units)", e.Budget)
}

// Manager is the mutation context handed to every mutator invocation: one
// parsed, semantically-checked program, a source rewriter, and a seeded
// random stream. It corresponds to the Mutator/Manager pair of the
// paper's C++ template (Figure 2).
type Manager struct {
	TU *cast.TranslationUnit
	RW *cast.Rewriter

	rng     *rand.Rand
	nameSeq int
	idents  map[string]bool
	fuel    int
	budget  int
}

// NewManager parses and checks src and returns a mutation context using
// the given random stream. It fails if src is not a valid program —
// mutators are only ever applied to compilable inputs. Parses are
// memoized (cast.ParseAndCheckCached) for the cold paths that build a
// manager per program (reduce, grayc, mutdsl, the metamut API, lint).
// No fuzzer hot loop calls it: the fuzzers parse into per-stream arenas
// and rebind one manager with ResetTo.
func NewManager(src string, rng *rand.Rand) (*Manager, error) {
	tu, err := cast.ParseAndCheckCached(src)
	if err != nil {
		return nil, err
	}
	return NewManagerFromTU(tu, rng), nil
}

// NewManagerFromTU wraps an already-parsed translation unit. The
// manager only reads the TU (all rewriting is text-level through RW),
// so sharing one TU across managers — and across streams, via the parse
// cache — is safe.
func NewManagerFromTU(tu *cast.TranslationUnit, rng *rand.Rand) *Manager {
	return &Manager{
		TU:     tu,
		RW:     cast.NewRewriter(tu.Source),
		rng:    rng,
		fuel:   DefaultFuel,
		budget: DefaultFuel,
	}
}

// Reset discards recorded edits and restores the fuel budget, name
// sequence and identifier set, making the manager equivalent to a
// freshly constructed one over the same translation unit. Batched
// fuzzers reuse one manager across the mutants of a step instead of
// allocating a rewriter per try. The idents map does NOT survive —
// generated names are recorded into it, so keeping it would shift
// GenerateUniqueName results away from fresh-manager behavior.
func (m *Manager) Reset() {
	m.RW.Reset()
	m.fuel = DefaultFuel
	m.budget = DefaultFuel
	m.nameSeq = 0
	m.idents = nil
}

// ResetTo rebinds the manager to tu, making it equivalent to
// NewManagerFromTU(tu, m.Rand()) while reusing the rewriter.
func (m *Manager) ResetTo(tu *cast.TranslationUnit) {
	m.TU = tu
	m.RW.ResetTo(tu.Source)
	m.Reset()
}

// identsMap lazily scans the source for identifiers. Most mutators
// never call GenerateUniqueName, so the scan is deferred until first
// use. Every maximal run of [A-Za-z_][A-Za-z0-9_]* counts, scanned left
// to right, including words inside strings, comments and literals: a
// generated name must not collide with any of them.
func (m *Manager) identsMap() map[string]bool {
	if m.idents == nil {
		m.idents = map[string]bool{}
		src := m.TU.Source
		for i := 0; i < len(src); {
			if !isIdentStart(src[i]) {
				i++
				continue
			}
			j := i + 1
			for j < len(src) && (isIdentStart(src[j]) || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			m.idents[src[i:j]] = true
			i = j
		}
	}
	return m.idents
}

// isIdentStart reports whether c may begin a C identifier.
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// Rand exposes the manager's random stream.
func (m *Manager) Rand() *rand.Rand { return m.rng }

// SetFuel replaces the remaining work budget — the chaos harness uses a
// tiny budget to exercise the watchdog without burning DefaultFuel.
func (m *Manager) SetFuel(n int) { m.fuel, m.budget = n, n }

// Fuel returns the remaining work budget.
func (m *Manager) Fuel() int { return m.fuel }

// charge deducts n units of μAST work; crossing zero raises the
// FuelExhausted watchdog panic, which supervised callers recover.
func (m *Manager) charge(n int) {
	m.fuel -= n
	if m.fuel < 0 {
		panic(FuelExhausted{Budget: m.budget})
	}
}

// Apply materializes all recorded edits, returning the mutated source.
func (m *Manager) Apply() string { return m.RW.Rewritten() }

// Changed reports whether any rewrite has been recorded.
func (m *Manager) Changed() bool { return m.RW.HasEdits() }

// ---------------------------------------------------------------------
// Query APIs
// ---------------------------------------------------------------------

// GetSourceText extracts the original source code of a tree node, for
// replication at new locations.
func (m *Manager) GetSourceText(n cast.Node) string {
	return m.RW.GetSourceText(n.Range())
}

// FindStrLocFrom locates the position of a string starting from a
// specified location; -1 when absent.
func (m *Manager) FindStrLocFrom(loc int, target string) int {
	return m.RW.FindStrLocFrom(loc, target)
}

// FindBracesRange identifies the range of the next pair of enclosed
// braces at or after from.
func (m *Manager) FindBracesRange(from int) (cast.SourceRange, bool) {
	return m.RW.FindBracesRange(from)
}

// RandElement chooses a uniformly random element of elements; it panics
// on an empty slice (mutators must check emptiness and bail out first).
func RandElement[T any](m *Manager, elements []T) T {
	return elements[m.rng.Intn(len(elements))]
}

// RandBool returns true with probability p.
func (m *Manager) RandBool(p float64) bool { return m.rng.Float64() < p }

// Collect returns every node of the given kind, in source order.
func (m *Manager) Collect(k cast.NodeKind) []cast.Node {
	out := cast.CollectKind(m.TU, k)
	m.charge(1 + len(out))
	return out
}

// Functions returns all function definitions (not prototypes).
func (m *Manager) Functions() []*cast.FunctionDecl {
	var out []*cast.FunctionDecl
	for _, d := range m.TU.Decls {
		if fd, ok := d.(*cast.FunctionDecl); ok && fd.IsDefinition() {
			out = append(out, fd)
		}
	}
	m.charge(1 + len(out))
	return out
}

// GlobalVars returns all file-scope variable declarations.
func (m *Manager) GlobalVars() []*cast.VarDecl {
	var out []*cast.VarDecl
	for _, d := range m.TU.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			out = append(out, vd)
		}
	}
	m.charge(1 + len(out))
	return out
}

// Find returns, in cast.Walk order, every node of type T under root
// (the whole unit when root is nil) that satisfies pred; a nil pred
// selects all. It is the one candidate query: the typed queries below
// and the mutators' collection steps are all written on it. It scans
// root's run of the unit's node table (cast.TranslationUnit.Subtree).
func Find[T cast.Node](m *Manager, root cast.Node, pred func(T) bool) []T {
	return FindAppend(m, nil, root, pred)
}

// FindAppend is Find appending to dst, for hot callers that reuse one
// buffer across trees.
func FindAppend[T cast.Node](m *Manager, dst []T, root cast.Node, pred func(T) bool) []T {
	if root == nil {
		root = m.TU
	}
	n0 := len(dst)
	for _, n := range m.TU.Subtree(root) {
		if x, ok := n.(T); ok && (pred == nil || pred(x)) {
			dst = append(dst, x)
		}
	}
	m.charge(1 + len(dst) - n0)
	return dst
}

// LocalVars returns all block-scope variable declarations under fn (or
// everywhere when fn is nil).
func (m *Manager) LocalVars(fn *cast.FunctionDecl) []*cast.VarDecl {
	var root cast.Node
	if fn != nil {
		root = fn
	}
	return Find(m, root, func(vd *cast.VarDecl) bool { return !vd.IsGlobal })
}

// Exprs returns every expression node under root (the whole unit when
// root is nil) that satisfies pred; a nil pred selects all.
func (m *Manager) Exprs(root cast.Node, pred func(cast.Expr) bool) []cast.Expr {
	return Find(m, root, pred)
}

// Stmts returns every statement node under root satisfying pred.
func (m *Manager) Stmts(root cast.Node, pred func(cast.Stmt) bool) []cast.Stmt {
	return Find(m, root, pred)
}

// Parents returns the unit's parent view, read from its node table.
func (m *Manager) Parents() cast.Parents { return m.TU.Parents() }

// ReturnsOf returns all return statements lexically inside fn.
func (m *Manager) ReturnsOf(fn *cast.FunctionDecl) []*cast.ReturnStmt {
	return Find[*cast.ReturnStmt](m, fn, nil)
}

// CallsTo returns all calls that resolve to fn anywhere in the unit.
func (m *Manager) CallsTo(fn *cast.FunctionDecl) []*cast.CallExpr {
	return Find(m, nil, func(ce *cast.CallExpr) bool {
		return ce.Callee != nil && ce.Callee.Name == fn.Name
	})
}

// UsesOf returns all references to the given declaration.
func (m *Manager) UsesOf(d cast.Decl) []*cast.DeclRefExpr {
	return Find(m, nil, func(dr *cast.DeclRefExpr) bool { return dr.Ref == d })
}

// ---------------------------------------------------------------------
// Rewriting APIs
// ---------------------------------------------------------------------

// ReplaceNode replaces a node's source extent with text.
func (m *Manager) ReplaceNode(n cast.Node, text string) bool {
	m.charge(1)
	return m.RW.ReplaceNode(n, text)
}

// ReplaceRange replaces a source range with text.
func (m *Manager) ReplaceRange(r cast.SourceRange, text string) bool {
	m.charge(1)
	return m.RW.ReplaceText(r, text)
}

// RemoveNode deletes a node's source extent.
func (m *Manager) RemoveNode(n cast.Node) bool {
	m.charge(1)
	return m.RW.RemoveNode(n)
}

// InsertBefore inserts text before the node.
func (m *Manager) InsertBefore(n cast.Node, text string) bool {
	m.charge(1)
	return m.RW.InsertTextBefore(n.Range().Begin, text)
}

// InsertAfter inserts text after the node.
func (m *Manager) InsertAfter(n cast.Node, text string) bool {
	return m.InsertAfterRange(n.Range(), text)
}

// InsertAfterRange inserts text after a source range that is not a
// node's (a declarator's name, say).
func (m *Manager) InsertAfterRange(r cast.SourceRange, text string) bool {
	m.charge(1)
	return m.RW.InsertTextAfter(r, text)
}

// RemoveParmFromFuncDecl removes a parameter from a function declaration,
// including the separating comma — simply removing the declaration node
// is insufficient to fully eliminate the parameter (Figure 6).
func (m *Manager) RemoveParmFromFuncDecl(fn *cast.FunctionDecl, pv *cast.ParmVarDecl) bool {
	r := pv.Range()
	src := m.RW.Source()
	idx := -1
	for i, p := range fn.Params {
		if p == pv {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	switch {
	case len(fn.Params) == 1:
		// Sole parameter: leave "(void)" to keep a valid prototype.
		return m.RW.ReplaceText(r, "void")
	case idx < len(fn.Params)-1:
		// Remove through the trailing comma.
		end := r.End
		for end < len(src) && (src[end] == ' ' || src[end] == '\t' || src[end] == '\n') {
			end++
		}
		if end < len(src) && src[end] == ',' {
			end++
			for end < len(src) && src[end] == ' ' {
				end++
			}
		}
		return m.RW.ReplaceText(cast.SourceRange{Begin: r.Begin, End: end}, "")
	default:
		// Last parameter: remove the preceding comma too.
		begin := r.Begin
		for begin > 0 && (src[begin-1] == ' ' || src[begin-1] == '\t' || src[begin-1] == '\n') {
			begin--
		}
		if begin > 0 && src[begin-1] == ',' {
			begin--
		}
		return m.RW.ReplaceText(cast.SourceRange{Begin: begin, End: r.End}, "")
	}
}

// RemoveArgFromExpr removes the index-th argument from a function
// invocation, adjusting the separating comma.
func (m *Manager) RemoveArgFromExpr(call *cast.CallExpr, index int) bool {
	if index < 0 || index >= len(call.Args) {
		return false
	}
	r := call.Args[index].Range()
	src := m.RW.Source()
	switch {
	case len(call.Args) == 1:
		return m.RW.ReplaceText(r, "")
	case index < len(call.Args)-1:
		end := r.End
		for end < len(src) && (src[end] == ' ' || src[end] == '\t' || src[end] == '\n') {
			end++
		}
		if end < len(src) && src[end] == ',' {
			end++
			for end < len(src) && src[end] == ' ' {
				end++
			}
		}
		return m.RW.ReplaceText(cast.SourceRange{Begin: r.Begin, End: end}, "")
	default:
		begin := r.Begin
		for begin > 0 && (src[begin-1] == ' ' || src[begin-1] == '\t' || src[begin-1] == '\n') {
			begin--
		}
		if begin > 0 && src[begin-1] == ',' {
			begin--
		}
		return m.RW.ReplaceText(cast.SourceRange{Begin: begin, End: r.End}, "")
	}
}

// ---------------------------------------------------------------------
// Semantic checking APIs
// ---------------------------------------------------------------------

// CheckBinop checks whether operator op can be applied to lhs and rhs.
func (m *Manager) CheckBinop(op cast.BinOp, lhs, rhs cast.Expr) bool {
	return cast.CheckBinopTypes(op, lhs.Type(), rhs.Type())
}

// CheckBinopTypes checks operator applicability on raw types.
func (m *Manager) CheckBinopTypes(op cast.BinOp, lt, rt cast.QualType) bool {
	return cast.CheckBinopTypes(op, lt, rt)
}

// CheckAssignment checks whether an expression of type rhsTy can replace
// an expression of type lhsTy in assignment position.
func (m *Manager) CheckAssignment(lhsTy, rhsTy cast.QualType) bool {
	return cast.CheckAssignmentTypes(lhsTy, rhsTy)
}

// IsSideEffectFree conservatively reports whether evaluating e twice is
// safe (no assignments, calls, or ++/--).
func (m *Manager) IsSideEffectFree(e cast.Expr) bool {
	for _, n := range m.TU.Subtree(e) {
		switch x := n.(type) {
		case *cast.CallExpr:
			return false
		case *cast.BinaryOperator:
			if x.Op.IsAssignment() {
				return false
			}
		case *cast.UnaryOperator:
			switch x.Op {
			case cast.UnPreInc, cast.UnPreDec, cast.UnPostInc, cast.UnPostDec:
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

// GenerateUniqueName generates an identifier based on baseName that does
// not collide with any identifier in the program or a previously
// generated name.
func (m *Manager) GenerateUniqueName(baseName string) string {
	idents := m.identsMap()
	for {
		m.nameSeq++
		cand := fmt.Sprintf("%s_%d", baseName, m.nameSeq)
		if !idents[cand] {
			idents[cand] = true
			return cand
		}
	}
}

// FormatAsDecl formats a given type and identifier as a variable
// declaration, handling C's inside-out declarator syntax.
func (m *Manager) FormatAsDecl(ty cast.QualType, name string) string {
	return cast.FormatAsDecl(ty, name)
}

// DefaultValueExpr spells a default value of the given type.
func (m *Manager) DefaultValueExpr(ty cast.QualType) string {
	return cast.DefaultValueExpr(ty)
}

// IndentOf returns the leading whitespace of the line containing off,
// used when inserting statements.
func (m *Manager) IndentOf(off int) string {
	src := m.RW.Source()
	lineStart := strings.LastIndexByte(src[:min(off, len(src))], '\n') + 1
	i := lineStart
	for i < len(src) && (src[i] == ' ' || src[i] == '\t') {
		i++
	}
	return src[lineStart:i]
}
