package cast

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/icsnju/metamut-go/internal/seeds"
)

// The tests here hold the table-driven lexer, operator tables and
// walker to the former implementations kept in reference_test.go.

// lexCorpus seeds FuzzLexMatchesReference with the seed programs and
// with inputs that reach every punctuator, literal form and error.
func lexCorpus() []string {
	out := seeds.Generate(24, 7000)
	return append(out,
		"a<<=b>>=c...d->e++f--g<<h>>i<=j>=k==l!=m&&n||o+=p-=q*=r/=s%=t&=u|=v^=w",
		"()[]{};,:?+-*/%&|^~!<>=. .. ... <<< >>> <<",
		"0x1fULL 0X.8p+3f 1.5e-3L 12 .5 1e 1e+ 07uL 'a' '\\'' \"s\\\"t\" _Bool __inline",
		"#define X 1 \\\n  2\n  # pragma\nint x; /* c */ // d\n",
		"int x = 1 @ 2;", "\"unterminated", "'u\n'", "/* open", "\x00", "\xff",
		"x<", "x-", "x.", "x..", "",
	)
}

// FuzzLexMatchesReference requires the lexer to give the former
// lexer's tokens (kind, text, offsets, line and column) and error on
// any input.
func FuzzLexMatchesReference(f *testing.F) {
	for _, src := range lexCorpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := Lex(src)
		want, wantErr := refLex(src)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("error = %v, want %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens differ\n got: %v\nwant: %v", got, want)
		}
	})
}

// walkOrder records the nodes a walk visits; with pruneEvery > 0 the
// visitor prunes every pruneEvery-th node it visits.
func walkOrder(walk func(Node, Visitor), root Node, pruneEvery int) []Node {
	var out []Node
	walk(root, func(n Node) bool {
		out = append(out, n)
		return pruneEvery == 0 || len(out)%pruneEvery != 0
	})
	return out
}

// checkWalkMatchesReference compares Walk, Children, and the node
// table's subtrees and parents with the former closure-driven walk over
// the tree at root. A unit without a table (or any other root) is
// served by the fallback walks, which must agree just the same.
func checkWalkMatchesReference(t *testing.T, root Node) {
	t.Helper()
	for _, prune := range []int{0, 2, 3, 7} {
		got, want := walkOrder(Walk, root, prune), walkOrder(refWalk, root, prune)
		if !sameNodes(got, want) {
			t.Fatalf("prune every %d: walk visits %d nodes, reference %d, or in another order",
				prune, len(got), len(want))
		}
	}
	all := walkOrder(refWalk, root, 0)
	for i, n := range all {
		if !sameNodes(Children(n), refChildren(n)) {
			t.Fatalf("node %d (%s): Children differs from the reference", i, n.Kind())
		}
	}
	tu, ok := root.(*TranslationUnit)
	if !ok {
		return
	}
	if tu.order != nil && len(tu.order) != len(all) {
		t.Fatalf("table holds %d nodes, reference walk %d", len(tu.order), len(all))
	}
	ref := map[Node]Node{}
	refBuildParents(ref, root)
	pm := tu.Parents()
	for i, n := range all {
		if !sameNodes(tu.Subtree(n), walkOrder(refWalk, n, 0)) {
			t.Fatalf("node %d (%s): Subtree differs from the reference walk", i, n.Kind())
		}
		if pm.Of(n) != ref[n] {
			t.Fatalf("node %d (%s): parent differs from the reference", i, n.Kind())
		}
	}
}

func sameNodes(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzWalkOrder requires Walk, Children and the node table to visit the
// same nodes in the same order as the former walk on any input that
// parses, including when the visitor prunes subtrees, and the table's
// subtrees and parents to match the reference on the checked tree.
func FuzzWalkOrder(f *testing.F) {
	for _, src := range seeds.Generate(24, 7000) {
		f.Add(src)
	}
	f.Add("struct s { int a; int b; }; enum e { A, B = 2 }; typedef int T;\n" +
		"int f(int x, ...);\n" +
		"int g(int n) { int a[3] = {1, 2, 3}; struct s v = (struct s){1, 2};\n" +
		"  for (;;) { if (n) break; else continue; }\n" +
		"  do n--; while (n > 0);\n" +
		"  switch (n) { case 1: case 2: n++; default: ; }\n" +
		"  l: n = n ? sizeof(int) : sizeof n; goto l;\n" +
		"  return v.a + a[0] + (n, -n) + ((int)n) + f(n, &v); }")
	f.Fuzz(func(t *testing.T, src string) {
		tu, err := Parse(src)
		if err != nil {
			return
		}
		_ = Check(tu) // a sema error still leaves the table built
		if tu.order == nil {
			t.Fatal("Check left the unit without a node table")
		}
		checkWalkMatchesReference(t, tu)
	})
}

// TestWalkSkipsTypedNil checks the walks against the reference on a
// hand-built tree whose optional children hold nil and typed-nil
// values, which the parser never produces.
func TestWalkSkipsTypedNil(t *testing.T) {
	lit := &IntegerLiteral{Value: 1}
	body := &CompoundStmt{Stmts: []Stmt{
		&IfStmt{Cond: lit, Then: (*CompoundStmt)(nil), Else: (*NullStmt)(nil)},
		&ForStmt{Init: nil, Cond: (*IntegerLiteral)(nil), Body: &NullStmt{}},
		(*ExprStmt)(nil),
		&ReturnStmt{Value: &CallExpr{Fn: &DeclRefExpr{Name: "f"}, Args: []Expr{nil, (*ParenExpr)(nil), lit}}},
	}}
	root := &TranslationUnit{Decls: []Decl{
		&FunctionDecl{Name: "f", Params: []*ParmVarDecl{nil, {Name: "p"}}, Body: body},
		(*VarDecl)(nil),
		&VarDecl{Name: "v", Init: (*InitListExpr)(nil)},
		&EnumDecl{Constants: []*EnumConstantDecl{nil, {Name: "A"}}},
		&RecordDecl{Fields: []*FieldDecl{{Name: "a"}, nil}},
	}}
	checkWalkMatchesReference(t, root)
	if root.order != nil {
		t.Fatal("a hand-built unit has a node table")
	}
	var typedNil *IfStmt
	Walk(typedNil, func(Node) bool { t.Fatal("typed-nil root visited"); return true })
	if Children(typedNil) != nil || Children(nil) != nil {
		t.Fatal("Children of a nil node is not nil")
	}
}

// TestTableFallsBackOutsideItself checks that a checked unit's table
// answers only for its own nodes: a node of another checked unit —
// whose stamped index is in range of this table — and a hand-built node
// are walked, and have no parent here.
func TestTableFallsBackOutsideItself(t *testing.T) {
	src := seeds.Generate(2, 7000)
	a, errA := ParseAndCheck(src[0])
	b, errB := ParseAndCheck(src[1])
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	stray := &ReturnStmt{Value: &IntegerLiteral{Value: 1}}
	others := append(walkOrder(refWalk, b, 0), stray, stray.Value)
	for i, n := range others {
		if _, in := a.index(n); in {
			t.Fatalf("node %d (%s) of another tree found in the table", i, n.Kind())
		}
		if !sameNodes(a.Subtree(n), walkOrder(refWalk, n, 0)) {
			t.Fatalf("node %d (%s): Subtree differs from the reference walk", i, n.Kind())
		}
		if a.Parents().Of(n) != nil {
			t.Fatalf("node %d (%s) of another tree has a parent in this one", i, n.Kind())
		}
	}
}

// TestTablesMatchReference compares the keyword, declaration-specifier,
// token-name and operator switches and arrays with the former maps on
// every token kind and every keyword.
func TestTablesMatchReference(t *testing.T) {
	words := []string{"", "in", "integer", "Int", "_bool", "__inline__", "sizeof_", "main", "x"}
	for kw := range refKeywords {
		words = append(words, kw)
	}
	for _, w := range words {
		if IsKeyword(w) != refKeywords[w] {
			t.Errorf("IsKeyword(%q) = %v", w, IsKeyword(w))
		}
		if isTypeSpecKeyword(w) != refTypeSpecKeywords[w] {
			t.Errorf("isTypeSpecKeyword(%q) = %v", w, isTypeSpecKeyword(w))
		}
	}
	for k := TokenKind(-1); k <= TokShrEq+2; k++ {
		want, ok := refTokenNames[k]
		if !ok {
			want = fmt.Sprintf("TokenKind(%d)", int(k))
		}
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
		op, ok := assignOp(k)
		if ref, refOK := refAssignOps[k]; op != ref || ok != refOK {
			t.Errorf("assignOp(%s) = %v, %v", k, op, ok)
		}
		uop, ok := unaryOp(k)
		if ref, refOK := refUnaryOps[k]; uop != ref || ok != refOK {
			t.Errorf("unaryOp(%s) = %v, %v", k, uop, ok)
		}
		var ent binPrecEntry
		if k >= 0 && int(k) < len(binPrec) {
			ent = binPrec[k]
		}
		if ref, ok := refBinPrec[k]; ent != ref || (ent.prec != 0) != ok {
			t.Errorf("binPrec[%s] = %+v, want %+v", k, ent, ref)
		}
	}
}
