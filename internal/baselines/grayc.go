package baselines

import (
	"fmt"
	"math/rand"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
)

// GrayC is the mutation-based baseline with exactly five hand-designed
// semantic-aware mutators (the paper verifies the count via
// `./grayc --list-mutations`): statement deletion, statement duplication,
// constant replacement, expression insertion, and control-flow injection.
// It is coverage-guided like μCFuzz but its tiny mutator set bounds the
// search space it can shape.
type GrayC struct {
	comp  *compilersim.Compiler
	pool  []string
	rng   *rand.Rand
	stats *fuzz.Stats
}

// grayCMutators builds the five GrayC mutators against the μAST API.
// They are deliberately NOT registered in the global muast registry —
// they belong to the baseline, not to the MetaMut sets.
func grayCMutators() []*muast.Mutator {
	mk := func(name, desc string, fn muast.MutateFunc) *muast.Mutator {
		return &muast.Mutator{Info: muast.Info{
			Name: name, Description: desc, Fn: fn,
		}}
	}
	return []*muast.Mutator{
		mk("GrayCDeleteStmt",
			"Delete a random expression statement.",
			grayCDeleteStmt),
		mk("GrayCDuplicateStmt",
			"Duplicate a random expression statement.",
			grayCDuplicateStmt),
		mk("GrayCReplaceConstant",
			"Replace an integer constant with a nearby value.",
			grayCReplaceConstant),
		mk("GrayCInsertExpr",
			"Insert a redundant computation over an existing variable.",
			grayCInsertExpr),
		mk("GrayCInjectControlFlow",
			"Wrap a statement in a fresh bounded loop with a guard.",
			grayCInjectControlFlow),
	}
}

func grayCExprStmts(m *muast.Manager) []cast.Stmt {
	var out []cast.Stmt
	for _, d := range m.TU.Decls {
		fd, ok := d.(*cast.FunctionDecl)
		if !ok || fd.Body == nil {
			continue
		}
		for _, n := range m.TU.Subtree(fd.Body) {
			if cs, ok := n.(*cast.CompoundStmt); ok {
				for _, s := range cs.Stmts {
					if _, isExpr := s.(*cast.ExprStmt); isExpr {
						out = append(out, s)
					}
				}
			}
		}
	}
	return out
}

func grayCDeleteStmt(m *muast.Manager) bool {
	cands := grayCExprStmts(m)
	if len(cands) == 0 {
		return false
	}
	return m.ReplaceNode(muast.RandElement(m, cands), ";")
}

func grayCDuplicateStmt(m *muast.Manager) bool {
	cands := grayCExprStmts(m)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	return m.InsertAfter(s, " "+m.GetSourceText(s))
}

func grayCReplaceConstant(m *muast.Manager) bool {
	var lits []*cast.IntegerLiteral
	for _, d := range m.TU.Decls {
		fd, ok := d.(*cast.FunctionDecl)
		if !ok || fd.Body == nil {
			continue
		}
		body := m.TU.Subtree(fd.Body)
		for i := 0; i < len(body); i++ {
			switch x := body[i].(type) {
			case *cast.CaseStmt:
				i += len(m.TU.Subtree(x)) - 1 // skip the case's subtree
			case *cast.IntegerLiteral:
				lits = append(lits, x)
			}
		}
	}
	if len(lits) == 0 {
		return false
	}
	il := muast.RandElement(m, lits)
	return m.ReplaceNode(il, fmt.Sprintf("%d", il.Value+int64(m.Rand().Intn(5))-2))
}

func grayCInsertExpr(m *muast.Manager) bool {
	cands := grayCExprStmts(m)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	// Find an integer variable in scope (a parameter of the enclosing
	// function) to compute over.
	fn := m.Parents().EnclosingFunction(s)
	if fn == nil {
		return false
	}
	var v string
	for _, pv := range fn.Params {
		if pv.Name != "" && pv.Ty.IsInteger() {
			v = pv.Name
			break
		}
	}
	if v == "" {
		return false
	}
	return m.InsertAfter(s, fmt.Sprintf(" %s = %s + 0;", v, v))
}

func grayCInjectControlFlow(m *muast.Manager) bool {
	cands := grayCExprStmts(m)
	if len(cands) == 0 {
		return false
	}
	s := muast.RandElement(m, cands)
	g := m.GenerateUniqueName("gc_i")
	return m.ReplaceNode(s, fmt.Sprintf(
		"{ int %s; for (%s = 0; %s < 2; %s++) { %s } }",
		g, g, g, g, m.GetSourceText(s)))
}

// NewGrayC builds the GrayC baseline over a seed pool.
func NewGrayC(name string, comp *compilersim.Compiler, seedPool []string,
	rng *rand.Rand) *GrayC {
	pool := make([]string, len(seedPool))
	copy(pool, seedPool)
	return &GrayC{comp: comp, pool: pool, rng: rng, stats: fuzz.NewStats(name)}
}

// Name returns the fuzzer name.
func (g *GrayC) Name() string { return g.stats.Name }

// Stats exposes accounting.
func (g *GrayC) Stats() *fuzz.Stats { return g.stats }

// Step applies one random GrayC mutator to a pool program.
func (g *GrayC) Step() {
	if len(g.pool) == 0 {
		return
	}
	p := g.pool[g.rng.Intn(len(g.pool))]
	muts := grayCMutators()
	mu := muts[g.rng.Intn(len(muts))]
	mgr, err := muast.NewManager(p, g.rng)
	if err != nil {
		return
	}
	mutant, ok := mu.Apply(p, mgr)
	if !ok {
		return
	}
	res := g.comp.Compile(mutant, compilersim.DefaultOptions())
	isNew := g.stats.Record(mutant, mu.Name, res)
	if isNew && res.OK {
		g.pool = append(g.pool, mutant)
	}
}
