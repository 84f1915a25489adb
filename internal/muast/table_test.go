package muast

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
)

// walkAll lists root's subtree with cast.Walk, the order every table
// query must reproduce.
func walkAll(root cast.Node) []cast.Node {
	var out []cast.Node
	cast.Walk(root, func(n cast.Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// walkParents maps every node under root to its parent with cast.Walk.
func walkParents(root cast.Node) map[cast.Node]cast.Node {
	pm := map[cast.Node]cast.Node{}
	cast.Walk(root, func(n cast.Node) bool {
		for _, c := range cast.Children(n) {
			pm[c] = n
		}
		return true
	})
	return pm
}

func sameNodes(a, b []cast.Node) bool {
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

// checkQueries holds Find and Parents on m to cast.Walk for every node
// under root.
func checkQueries(t *testing.T, m *Manager, root cast.Node) {
	t.Helper()
	pm := walkParents(m.TU)
	for i, n := range walkAll(root) {
		if got := Find[cast.Node](m, n, nil); !sameNodes(got, walkAll(n)) {
			t.Fatalf("node %d (%s): Find differs from cast.Walk", i, n.Kind())
		}
		if got := m.Parents().Of(n); got != pm[n] {
			t.Fatalf("node %d (%s): parent differs from cast.Walk's", i, n.Kind())
		}
	}
}

// TestQueriesFallBackWithoutTable: a hand-built unit has no node table,
// and a node of another unit is outside this one's; Find and Parents
// then walk, and agree with cast.Walk.
func TestQueriesFallBackWithoutTable(t *testing.T) {
	lit := &cast.IntegerLiteral{Value: 1}
	ret := &cast.ReturnStmt{Value: &cast.BinaryOperator{Op: cast.BinAdd, LHS: lit, RHS: &cast.DeclRefExpr{Name: "p"}}}
	fn := &cast.FunctionDecl{Name: "f", Params: []*cast.ParmVarDecl{{Name: "p"}},
		Body: &cast.CompoundStmt{Stmts: []cast.Stmt{ret}}}
	hand := &cast.TranslationUnit{Decls: []cast.Decl{fn}}
	m := NewManagerFromTU(hand, rand.New(rand.NewSource(1)))
	checkQueries(t, m, hand)
	if got := m.Parents().EnclosingFunction(lit); got != fn {
		t.Fatalf("EnclosingFunction = %v, want f", got)
	}

	checked := newMgr(t, prog)
	other := newMgr(t, "int g(int x) { return x - 1; }")
	for _, n := range walkAll(other.TU) {
		if got := Find[cast.Node](checked, n, nil); !sameNodes(got, walkAll(n)) {
			t.Fatalf("%s of another unit: Find differs from cast.Walk", n.Kind())
		}
		if checked.Parents().Of(n) != nil {
			t.Fatalf("%s of another unit has a parent in this one", n.Kind())
		}
	}
	checkQueries(t, checked, checked.TU)
}

// TestSharedUnitConcurrentQueries: the parse cache hands one checked
// unit to many goroutines, so table queries must only read it (run
// under -race by make race). The declarations-only unit gives the
// checker no function body to scan, so only a table built by Check
// itself — not on a first query — keeps its queries read-only.
func TestSharedUnitConcurrentQueries(t *testing.T) {
	for _, src := range []string{prog, "int gv = 3 + 4; struct s { int a; }; enum e { A = 1, B };"} {
		tu, err := cast.ParseAndCheckCached(src)
		if err != nil {
			t.Fatal(err)
		}
		want := walkAll(tu)
		pm := walkParents(tu)
		var wg sync.WaitGroup
		errs := make([]string, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := NewManagerFromTU(tu, rand.New(rand.NewSource(int64(g))))
				for range 50 {
					if !sameNodes(Find[cast.Node](m, nil, nil), want) {
						errs[g] = "Find over the unit differs from cast.Walk"
						return
					}
					for _, n := range want {
						if !sameNodes(tu.Subtree(n), walkAll(n)) {
							errs[g] = "Subtree differs from cast.Walk"
							return
						}
						if m.Parents().Of(n) != pm[n] {
							errs[g] = "Parents differs from cast.Walk"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for g, e := range errs {
			if e != "" {
				t.Errorf("goroutine %d: %s", g, e)
			}
		}
	}
}
