package compilersim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/obs"
)

// Options selects the compilation configuration, mirroring the compiler
// command line the macro fuzzer samples.
type Options struct {
	// OptLevel is 0..3 (-O0 .. -O3). The paper's RQ1 runs use -O2.
	OptLevel int
	// DisabledPasses names optimizer passes switched off, e.g.
	// "loopvec" for -fno-tree-vectorize or "strbuiltin" for
	// -fno-optimize-strlen.
	DisabledPasses []string
}

// DefaultOptions is -O2 with the full pipeline.
func DefaultOptions() Options { return Options{OptLevel: 2} }

// FlagString renders the options like a compiler invocation.
func (o Options) FlagString() string {
	s := fmt.Sprintf("-O%d", o.OptLevel)
	for _, p := range o.DisabledPasses {
		s += " -fno-" + p
	}
	return s
}

// Result is the outcome of one compilation.
type Result struct {
	// OK means the input compiled (no diagnostics, no crash).
	OK bool
	// Diagnostics carries front-end errors for rejected programs.
	Diagnostics []string
	// Crash is non-nil when an injected defect fired.
	Crash *CrashReport
	// Hang mirrors a compiler that never terminates; the driver detects
	// it instead of actually hanging.
	Hang bool
	// Coverage is the edge map for this single compilation.
	Coverage *cover.Map
	// Object is the generated code (nil unless fully compiled).
	Object *Object
	// Feats is exposed for tests and ablations.
	Feats Features
}

// Compiler is one simulated compiler instance (a profile plus version).
type Compiler struct {
	Name    string // "gcc" or "clang"
	Version int    // e.g. 14 or 18
	bugs    []Bug
	passes  []Pass
	tele    *compilerTelemetry
	cache   *mutantCache

	// Per-stage tracer seeds (HashString(Name+".fe") etc.), hashed once
	// so per-compilation tracer setup allocates nothing.
	feSeed, irSeed, optSeed, beSeed uint32

	// ctxs pools compile contexts for the owning Compile API; streams
	// that want borrowed results hold their own Context instead.
	ctxs sync.Pool
}

// compilerTelemetry holds pre-resolved handles so the per-compilation
// hot path never does a family lookup.
type compilerTelemetry struct {
	ok, reject, crash, hang *obs.Counter
	byComponent             *obs.CounterVec
	cacheHits               *obs.Counter
}

// New returns a compiler for the given profile name ("gcc"/"clang").
func New(name string, version int) *Compiler {
	c := &Compiler{Name: name, Version: version}
	switch name {
	case "gcc":
		c.bugs = gccBugs()
		c.passes = StandardPasses()
	case "clang":
		c.bugs = clangBugs()
		// Clang profile: a differently-ordered pipeline (simplify before
		// copyprop, extra CSE round) so the two compilers cover
		// different edges on the same input.
		c.passes = initPassSites([]Pass{
			{Name: "simplify", Run: (*optimizer).algebraicSimplify},
			{Name: "constfold", Run: (*optimizer).constFold},
			{Name: "copyprop", Run: (*optimizer).copyProp},
			{Name: "cse", Run: (*optimizer).cse},
			{Name: "dce", Run: (*optimizer).dce},
			{Name: "loopvec", Run: (*optimizer).loopVectorize},
			{Name: "strbuiltin", Run: (*optimizer).strBuiltinOpt},
			{Name: "cse2", Run: (*optimizer).cse},
			{Name: "latefold", Run: (*optimizer).lateFold},
			{Name: "dce2", Run: (*optimizer).dce},
		})
	default:
		panic("compilersim: unknown profile " + name)
	}
	c.feSeed = cover.HashString(c.Name + ".fe")
	c.irSeed = cover.HashString(c.Name + ".ir")
	c.optSeed = cover.HashString(c.Name + ".opt")
	c.beSeed = cover.HashString(c.Name + ".be")
	c.ctxs.New = func() any { return c.NewContext() }
	return c
}

// Bugs exposes the defect corpus (read-only) for the experiment harness.
func (c *Compiler) Bugs() []Bug { return c.bugs }

// Instrument attaches live telemetry: every Compile updates
// compile_results_total{compiler,outcome} and, for crashes,
// compiler_crashes_total{compiler,component}.
func (c *Compiler) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	results := reg.Counter("compile_results_total", "compiler", "outcome")
	c.tele = &compilerTelemetry{
		ok:          results.With(c.Name, "ok"),
		reject:      results.With(c.Name, "reject"),
		crash:       results.With(c.Name, "crash"),
		hang:        results.With(c.Name, "hang"),
		byComponent: reg.Counter("compiler_crashes_total", "compiler", "component"),
		cacheHits:   reg.Counter("mutant_cache_hits_total").With(),
	}
}

// record updates the outcome counters for one (possibly cached)
// compilation; cache hits count like fresh ones so rates stay honest.
func (t *compilerTelemetry) record(c *Compiler, res Result) {
	switch {
	case res.OK:
		t.ok.Inc()
	case res.Hang:
		t.hang.Inc()
		t.byComponent.With(c.Name, res.Crash.Component.String()).Inc()
	case res.Crash != nil:
		t.crash.Inc()
		t.byComponent.With(c.Name, res.Crash.Component.String()).Inc()
	default:
		t.reject.Inc()
	}
}

// Compile runs the full pipeline on src, consulting the mutant cache
// first when one is enabled. The result is fully owned by the caller:
// compilation happens through a pooled context and the borrowed result
// is deep-cloned before the context returns to the pool. Fuzzing streams
// that can honor the borrow discipline should hold a Context and call
// Context.Compile instead.
func (c *Compiler) Compile(src string, opts Options) Result {
	cx := c.ctxs.Get().(*Context)
	res := cx.memo(src, opts, true, true)
	c.ctxs.Put(cx)
	return res
}

// enabledPasses filters the profile pipeline by the options.
func (c *Compiler) enabledPasses(opts Options) []Pass {
	disabled := map[string]bool{}
	for _, p := range opts.DisabledPasses {
		disabled[p] = true
	}
	var out []Pass
	for _, p := range c.passes {
		base := strings.TrimRight(p.Name, "0123456789")
		if disabled[p.Name] || disabled[base] {
			continue
		}
		out = append(out, p)
	}
	if opts.OptLevel == 1 {
		// -O1: no vectorizer, no string-builtin folding.
		var o1 []Pass
		for _, p := range out {
			if p.Name == "loopvec" || p.Name == "strbuiltin" {
				continue
			}
			o1 = append(o1, p)
		}
		return o1
	}
	return out
}

// diagClass reduces a diagnostic message to its template (everything up
// to the first quoted operand), so error-path coverage sites stay bounded
// while still distinguishing diagnostic kinds.
func diagClass(msg string) string {
	if i := strings.IndexByte(msg, '"'); i >= 0 {
		msg = msg[:i]
	}
	if len(msg) > 28 {
		msg = msg[:28]
	}
	return msg
}

// checkBugs evaluates the component's defects in a stable order and
// returns the first that fires; the optimizer/back-end gate on MinOpt.
func (c *Compiler) checkBugs(tc *TriggerCtx, comp Component) *CrashReport {
	for i := range c.bugs {
		b := &c.bugs[i]
		if b.Component != comp || tc.OptLevel < b.MinOpt {
			continue
		}
		if b.Trigger(tc) {
			return &CrashReport{
				BugID:     b.ID,
				Component: b.Component,
				Kind:      b.Kind,
				Frames:    b.Frames,
				Message:   b.Message,
			}
		}
	}
	return nil
}

func (c *Compiler) crashResult(crash *CrashReport, covMap *cover.Map,
	feats Features, diags []string) Result {
	r := Result{
		OK:          false,
		Diagnostics: diags,
		Crash:       crash,
		Coverage:    covMap,
		Feats:       feats,
	}
	if crash.Kind == Hang {
		r.Hang = true
	}
	return r
}

// FeatureNames returns the sorted feature keys (diagnostic helper).
func FeatureNames(f Features) []string {
	var keys []string
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
