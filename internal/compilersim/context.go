package compilersim

import (
	"maps"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
)

// Context is a reusable per-stream compile context — the persistent-mode
// analogue for the simulated compiler. It owns every buffer one
// compilation needs (coverage map, tracers, AST arena, IR generator,
// optimizer scratch, back-end scratch), so the mutate→compile→cover hot
// loop stops re-allocating them per mutant.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - A Context is NOT safe for concurrent use. One context per stream,
//     the same discipline as the stream RNG.
//   - Results returned by Context.Compile and Context.Finish are
//     BORROWED: Coverage, Feats, Diagnostics and Object alias
//     context-owned storage and are valid only until the next Compile or
//     Front on the same context. Callers that retain anything (corpus
//     admission, crash reports) must copy what they keep — coverage is
//     typically merged immediately, which is a copy by construction.
//   - Front borrows the context from its call until the matching Finish
//     (or the next Front/Compile): the kept tree, tokens and front-end
//     coverage live in context storage, and any Compile or Front in
//     between invalidates them.
//   - Compiler.Compile keeps its owning contract: it compiles through a
//     pooled context and deep-clones the result before returning it.
type Context struct {
	c *Compiler

	cov   cover.Map
	feTr  cover.Tracer
	irTr  cover.Tracer
	optTr cover.Tracer
	beTr  cover.Tracer

	feats Features
	tc    TriggerCtx
	diags []string

	lx    *cast.Lexer
	toks  []cast.Token
	arena *cast.Arena
	tu    *cast.TranslationUnit // Front's tree, valid until the next Front
	g     irgen
	o     optimizer
	be    codegen

	// Enabled-pass memo, keyed by the last Options seen.
	passLevel    int
	passDisabled []string
	passList     []Pass
	passValid    bool
}

// NewContext returns a fresh reusable compile context for c.
func (c *Compiler) NewContext() *Context {
	cx := &Context{
		c:     c,
		feats: Features{},
		lx:    cast.NewLexer(""),
		arena: cast.NewArena(),
	}
	cx.g.initMaps()
	cx.o.initScratch()
	return cx
}

// Compile runs the full pipeline on src through this context, consulting
// the compiler's mutant cache when one is enabled. The result is
// borrowed (valid until the next Compile or Front on this context);
// cache entries are deep clones, so cached results stay immutable and
// shareable.
func (cx *Context) Compile(src string, opts Options) Result {
	return cx.memo(src, opts, true, false)
}

// Finish completes the compilation Front started on this context: the
// mutant-cache lookup keyed on Front's src, front-end defect checks,
// irgen, opt and back end. Front followed by Finish returns exactly
// what Compile returns, under the same borrow rule. Finish is valid only
// directly after Front on the same context.
func (cx *Context) Finish(opts Options) Result {
	return cx.memo(cx.tc.Source, opts, false, false)
}

// memo is the one mutant-cache wrapper behind Compiler.Compile,
// Context.Compile and Context.Finish. A hit returns the cached (shared,
// immutable) result; a miss runs the front end when runFront is set
// (Finish's caller already ran it), then the back half, and caches a
// deep clone. own clones the result handed back too, so an owning
// caller and the cache share that one clone. Hits and misses both book
// outcome telemetry.
func (cx *Context) memo(src string, opts Options, runFront, own bool) Result {
	c := cx.c
	var key [32]byte
	if c.cache != nil {
		key = mutantKey(src, opts)
		if res, ok := c.cache.get(key); ok {
			if t := c.tele; t != nil {
				t.cacheHits.Inc()
				t.record(c, res)
			}
			return res
		}
	}
	if runFront {
		cx.Front(src)
	}
	res := cx.back(opts)
	if own {
		res = cloneResult(res)
	}
	if c.cache != nil {
		kept := res
		if !own {
			kept = cloneResult(res)
		}
		c.cache.put(key, kept)
	}
	if t := c.tele; t != nil {
		t.record(c, res)
	}
	return res
}

// Front runs only the front end over src, the first half of the
// pipeline: it resets the coverage map, features and diagnostics, then
// lexes, parses and checks src into the context arena, recording
// front-end coverage into the context's map and keeping the tree and
// the ParseOK/CheckOK verdict for Finish. It returns the first
// front-end error (a lex error or *cast.ParseError, or the
// cast.SemaErrors of a failed check) and checks no defects, so a caller
// can drop a mutant the front end rejects without it ever reaching
// checkBugs.
func (cx *Context) Front(src string) error {
	c := cx.c
	cx.cov.Reset()
	clear(cx.feats)
	cx.diags = cx.diags[:0]
	diags := cx.diags
	covMap := &cx.cov
	cx.tc = TriggerCtx{Source: src, Feats: cx.feats}
	tc := &cx.tc

	// ---- Front-end: one lex serves both the lexical coverage walk and
	// the parser (runs even for garbage input — token-kind edges are the
	// coverage a byte-level fuzzer climbs with invalid inputs). Coverage
	// is capped at the first 200000 tokens, exactly like the standalone
	// token walk it replaces; lexing itself continues so the parser sees
	// the full stream.
	cx.feTr.ResetTo(covMap, c.feSeed)
	feTrace := &cx.feTr
	cx.lx.Reset(src)
	toks := cx.toks[:0]
	var lexErr error
	for i := 0; ; i++ {
		tok, err := cx.lx.Next()
		if err != nil {
			lexErr = err
			if i < 200000 {
				feTrace.HitN("lex.error", i%59)
			}
			break
		}
		toks = append(toks, tok)
		if tok.Kind == cast.TokEOF {
			if i < 200000 {
				feTrace.HitStr("lex.eof")
			}
			break
		}
		if i < 200000 {
			feTrace.HitNHash(lexSiteHash[tok.Kind], len(tok.Text)%7)
		}
	}
	cx.toks = toks

	var tu *cast.TranslationUnit
	var perr error
	if lexErr != nil {
		perr = lexErr
	} else {
		cx.arena.Reset()
		tu, perr = cast.ParseTokens(src, toks, cx.arena)
	}
	cx.tu = tu
	tc.ParseOK = perr == nil
	ferr := perr
	if perr != nil {
		diags = append(diags, perr.Error())
		// Error recovery is code too: distinct syntactic failure points
		// exercise distinct diagnostic paths — the coverage a byte-level
		// fuzzer climbs.
		if pe, ok := perr.(*cast.ParseError); ok {
			feTrace.HitN("parse.error", pe.Line%53)
			feTrace.HitStr("parse.msg." + diagClass(pe.Msg))
		} else {
			feTrace.HitStr("parse.error")
		}
	} else {
		// Parse-tree coverage: node-kind edges in source order, scanned
		// off the node table that Check then reuses.
		tu.BuildTable()
		for _, n := range tu.Subtree(tu) {
			feTrace.Hit(astSiteHash[n.Kind()])
		}
		if cerr := cast.Check(tu); cerr != nil {
			tc.CheckOK = false
			ferr = cerr
			if se, ok := cerr.(cast.SemaErrors); ok {
				for _, e := range se {
					diags = append(diags, e.Error())
					feTrace.HitN("sema."+diagClass(e.Msg), e.Offset%41)
				}
			} else {
				diags = append(diags, cerr.Error())
			}
		} else {
			tc.CheckOK = true
		}
	}
	cx.diags = diags
	return ferr
}

// back is the second half of the pipeline, over the state Front left:
// front-end defect checks, then irgen, opt and back end.
func (cx *Context) back(opts Options) Result {
	c := cx.c
	covMap := &cx.cov
	feats := cx.feats
	diags := cx.diags
	tc := &cx.tc
	tc.OptLevel = opts.OptLevel

	// Front-end defects can fire on any input (error-recovery paths).
	if crash := c.checkBugs(tc, FrontEnd); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}
	if !tc.ParseOK || !tc.CheckOK {
		return Result{OK: false, Diagnostics: diags, Coverage: covMap, Feats: feats}
	}

	// ---- IR generation.
	cx.irTr.ResetTo(covMap, c.irSeed)
	cx.g.trace = &cx.irTr
	cx.g.feats = feats
	prog := cx.g.generate(cx.tu)
	if crash := c.checkBugs(tc, IRGen); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}

	// ---- Optimizer.
	if opts.OptLevel >= 1 {
		cx.optTr.ResetTo(covMap, c.optSeed)
		cx.o.trace = &cx.optTr
		cx.o.feats = feats
		cx.o.prog = prog
		cx.o.run(cx.enabledPasses(opts))
		if crash := c.checkBugs(tc, Opt); crash != nil {
			return c.crashResult(crash, covMap, feats, diags)
		}
	}

	// ---- Back-end.
	cx.beTr.ResetTo(covMap, c.beSeed)
	obj := cx.be.generate(prog, &cx.beTr, feats)
	if crash := c.checkBugs(tc, BackEnd); crash != nil {
		return c.crashResult(crash, covMap, feats, diags)
	}

	return Result{OK: true, Coverage: covMap, Object: obj, Feats: feats}
}

// enabledPasses returns the profile pipeline filtered by opts, memoized
// against the last options seen (fuzzing streams compile thousands of
// mutants under one flag set).
func (cx *Context) enabledPasses(opts Options) []Pass {
	if cx.passValid && cx.passLevel == opts.OptLevel &&
		stringSliceEqual(cx.passDisabled, opts.DisabledPasses) {
		return cx.passList
	}
	cx.passList = cx.c.enabledPasses(opts)
	cx.passLevel = opts.OptLevel
	cx.passDisabled = append(cx.passDisabled[:0], opts.DisabledPasses...)
	cx.passValid = true
	return cx.passList
}

func stringSliceEqual(a, b []string) bool {
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

// cloneResult deep-copies a borrowed Result into owned storage: a fresh
// coverage map, feature map, diagnostics and object, so the clone stays
// valid after the producing context is reused. The Crash report is
// already owned (allocated per compile).
func cloneResult(r Result) Result {
	if r.Coverage != nil {
		r.Coverage = r.Coverage.Clone()
	}
	if r.Feats != nil {
		r.Feats = maps.Clone(r.Feats)
	}
	if len(r.Diagnostics) > 0 {
		r.Diagnostics = append([]string(nil), r.Diagnostics...)
	} else {
		r.Diagnostics = nil
	}
	if r.Object != nil {
		o := *r.Object
		o.Instrs = append([]AsmInstr(nil), r.Object.Instrs...)
		r.Object = &o
	}
	return r
}
