// Package reduce implements test-case minimization for crashing inputs —
// the step between "the fuzzer found a crash" and "a reportable bug".
// The paper's case studies all present minimized mutants ("The test case
// has been minimized to include only the essential code and mutation
// sites necessary to trigger the bug", Section 5.3).
//
// The reducer is a structural delta debugger over the C AST: it
// repeatedly tries to delete top-level declarations, statements, and
// branches, and to simplify expressions, keeping any change under which
// the compiler still crashes with the SAME signature (top-2 stack
// frames). It terminates at a 1-minimal-ish fixpoint.
package reduce

import (
	"math/rand"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
)

// Oracle decides whether a candidate still reproduces the target
// behaviour.
type Oracle func(src string) bool

// CrashOracle returns an oracle that accepts candidates crashing comp
// with the same signature as the original report.
func CrashOracle(comp *compilersim.Compiler, opts compilersim.Options,
	signature string) Oracle {
	return func(src string) bool {
		res := comp.Compile(src, opts)
		return res.Crash != nil && res.Crash.Signature() == signature
	}
}

// Result summarizes one reduction.
type Result struct {
	Output string
	// Passes is the number of full fixpoint iterations.
	Passes int
	// Tried and Kept count oracle invocations and accepted reductions.
	Tried int
	Kept  int
}

// Reduction ratio (bytes kept / bytes in).
func (r Result) Ratio(input string) float64 {
	if len(input) == 0 {
		return 1
	}
	return float64(len(r.Output)) / float64(len(input))
}

// Config bounds the reduction work.
type Config struct {
	// MaxOracleCalls caps the total number of compile attempts.
	MaxOracleCalls int
	// MaxPasses caps fixpoint iterations.
	MaxPasses int
}

// DefaultConfig is suitable for crash triage.
func DefaultConfig() Config { return Config{MaxOracleCalls: 2000, MaxPasses: 12} }

// Reduce minimizes src while oracle(src) stays true. src itself must
// satisfy the oracle or Reduce returns it unchanged.
func Reduce(src string, oracle Oracle, cfg Config) Result {
	r := Result{Output: src}
	if !oracle(src) {
		return r
	}
	cur := src
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		r.Passes++
		next, changed := reduceOnce(cur, oracle, &r, cfg)
		if !changed {
			break
		}
		cur = next
	}
	r.Output = cur
	return r
}

// attempt runs one candidate through the oracle with budget accounting.
func attempt(cand string, oracle Oracle, r *Result, cfg Config) bool {
	if r.Tried >= cfg.MaxOracleCalls {
		return false
	}
	r.Tried++
	if oracle(cand) {
		r.Kept++
		return true
	}
	return false
}

// reduceOnce applies every reduction family once, returning the best
// program found this round.
func reduceOnce(src string, oracle Oracle, r *Result, cfg Config) (string, bool) {
	changed := false
	for _, family := range []func(string, Oracle, *Result, Config) (string, bool){
		dropTopLevelDecls,
		dropStatements,
		simplifyBranches,
		simplifyExpressions,
	} {
		next, ch := family(src, oracle, r, cfg)
		if ch {
			src = next
			changed = true
		}
	}
	return src, changed
}

// parseQuiet parses without sema (crashing inputs may be invalid).
func parseQuiet(src string) *cast.TranslationUnit {
	tu, err := cast.Parse(src)
	if err != nil {
		return nil
	}
	return tu
}

// dropTopLevelDecls tries removing each top-level declaration, largest
// first.
func dropTopLevelDecls(src string, oracle Oracle, r *Result, cfg Config) (string, bool) {
	changed := false
	for {
		tu := parseQuiet(src)
		if tu == nil {
			return src, changed
		}
		removedAny := false
		// Try larger declarations first: they pay off most.
		order := make([]cast.Decl, len(tu.Decls))
		copy(order, tu.Decls)
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				if order[j].Range().Len() > order[i].Range().Len() {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		for _, d := range order {
			rng := d.Range()
			cand := src[:rng.Begin] + src[rng.End:]
			if attempt(cand, oracle, r, cfg) {
				src = cand
				removedAny = true
				changed = true
				break // ranges are stale; reparse
			}
		}
		if !removedAny {
			return src, changed
		}
	}
}

// dropStatements tries deleting statements inside compound blocks.
func dropStatements(src string, oracle Oracle, r *Result, cfg Config) (string, bool) {
	changed := false
	for {
		tu := parseQuiet(src)
		if tu == nil {
			return src, changed
		}
		var stmts []cast.Stmt
		for _, n := range cast.CollectKind(tu, cast.KindCompoundStmt) {
			stmts = append(stmts, n.(*cast.CompoundStmt).Stmts...)
		}
		// Largest first.
		for i := 0; i < len(stmts); i++ {
			for j := i + 1; j < len(stmts); j++ {
				if stmts[j].Range().Len() > stmts[i].Range().Len() {
					stmts[i], stmts[j] = stmts[j], stmts[i]
				}
			}
		}
		removedAny := false
		for _, s := range stmts {
			rng := s.Range()
			cand := src[:rng.Begin] + ";" + src[rng.End:]
			if attempt(cand, oracle, r, cfg) {
				src = cand
				removedAny = true
				changed = true
				break
			}
		}
		if !removedAny {
			return src, changed
		}
	}
}

// simplifyBranches replaces if/loop statements with their bodies.
func simplifyBranches(src string, oracle Oracle, r *Result, cfg Config) (string, bool) {
	changed := false
	for {
		tu := parseQuiet(src)
		if tu == nil {
			return src, changed
		}
		type repl struct {
			rng  cast.SourceRange
			text string
		}
		var cands []repl
		for _, n := range tu.Subtree(tu) {
			switch x := n.(type) {
			case *cast.IfStmt:
				cands = append(cands, repl{x.Range(), src[x.Then.Range().Begin:x.Then.Range().End]})
				if x.Else != nil {
					cands = append(cands, repl{x.Range(), src[x.Else.Range().Begin:x.Else.Range().End]})
				}
			case *cast.WhileStmt:
				cands = append(cands, repl{x.Range(), src[x.Body.Range().Begin:x.Body.Range().End]})
			case *cast.ForStmt:
				cands = append(cands, repl{x.Range(), src[x.Body.Range().Begin:x.Body.Range().End]})
			}
		}
		applied := false
		for _, c := range cands {
			cand := src[:c.rng.Begin] + c.text + src[c.rng.End:]
			if len(cand) >= len(src) {
				continue
			}
			if attempt(cand, oracle, r, cfg) {
				src = cand
				applied = true
				changed = true
				break
			}
		}
		if !applied {
			return src, changed
		}
	}
}

// simplifyExpressions replaces large expressions with "0".
func simplifyExpressions(src string, oracle Oracle, r *Result, cfg Config) (string, bool) {
	changed := false
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		mgr, err := muast.NewManager(src, rng)
		if err != nil {
			// Invalid programs still reduce via the textual families.
			return src, changed
		}
		var exprs []cast.Expr
		for _, e := range mgr.Exprs(nil, nil) {
			if e.Range().Len() > 3 {
				exprs = append(exprs, e)
			}
		}
		// Largest first.
		for i := 0; i < len(exprs); i++ {
			for j := i + 1; j < len(exprs); j++ {
				if exprs[j].Range().Len() > exprs[i].Range().Len() {
					exprs[i], exprs[j] = exprs[j], exprs[i]
				}
			}
		}
		applied := false
		for _, e := range exprs {
			er := e.Range()
			cand := src[:er.Begin] + "0" + src[er.End:]
			if attempt(cand, oracle, r, cfg) {
				src = cand
				applied = true
				changed = true
				break
			}
		}
		if !applied {
			return src, changed
		}
	}
	return src, changed
}
