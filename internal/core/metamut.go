// Package core implements the MetaMut framework — the paper's primary
// contribution (Figure 1): ❶ mutator invention, ❷ implementation
// synthesis against the μAST template, and ❸ validation and refinement
// driven by the six staged goals. It also carries the campaign runners
// (supervised M_s and unsupervised M_u) and the cost accounting behind
// Tables 1-3.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/mutdsl"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
)

// Goal numbers the six validation goals of Section 3.3.
type Goal int

// Validation goals, from simplest to most complex.
const (
	GoalCompiles     Goal = 1 // μ compiles
	GoalTerminates   Goal = 2 // μ terminates (not hang)
	GoalReturns      Goal = 3 // μ returns (not crash)
	GoalOutputs      Goal = 4 // μ outputs something
	GoalChanges      Goal = 5 // μ changes something
	GoalValidMutants Goal = 6 // μ creates compilable mutants
	goalAllMet       Goal = 0
)

var goalDescriptions = map[Goal]string{
	GoalCompiles:     "mutator does not compile",
	GoalTerminates:   "mutator hangs",
	GoalReturns:      "mutator crashes",
	GoalOutputs:      "mutator outputs nothing",
	GoalChanges:      "mutator does not rewrite",
	GoalValidMutants: "mutator creates compile-error mutant",
}

// Outcome classifies one MetaMut invocation.
type Outcome int

// Invocation outcomes. Valid mutators join the working set; the Invalid*
// classes reproduce Section 4.1's failure taxonomy; APIError covers the
// throttling/timeouts that killed 24 of 100 unsupervised invocations.
// Deferred marks an invocation the circuit breaker refused to start or
// finish during a throttle storm — unlike APIError it is retryable, and
// the supervised campaign re-queues it.
const (
	Valid Outcome = iota
	InvalidRefinementFailed
	InvalidMismatch
	InvalidUnthorough
	InvalidDuplicate
	APIError
	Deferred
)

var outcomeNames = [...]string{
	"valid", "refinement-failed", "mismatched-implementation",
	"unthorough-tests", "duplicate", "api-error", "deferred",
}

// String returns the outcome label.
func (o Outcome) String() string { return outcomeNames[o] }

// Cost aggregates one invocation's spend, split by pipeline step
// (Table 2's rows).
type Cost struct {
	InventionTokens      int
	ImplementationTokens int
	BugFixTokens         int

	InventionTime      time.Duration
	ImplementationTime time.Duration
	BugFixTime         time.Duration

	// WaitTime / PrepareTime split the same wall clock the other way
	// (Table 3): awaiting responses vs. compiling, running, and
	// collecting feedback.
	WaitTime    time.Duration
	PrepareTime time.Duration

	// QA rounds per step. Invention and implementation are one round
	// each by construction; bug-fixing includes the test-generation
	// round plus one round per repair.
	QAInvention      int
	QAImplementation int
	QABugFix         int
}

// bookBugFix books one bug-fixing QA round (test generation or a
// repair): its tokens, and its wait under both the step and Table 3.
func (c *Cost) bookBugFix(u llm.Usage) {
	c.QABugFix++
	c.BugFixTokens += u.TotalTokens()
	c.BugFixTime += u.Wait
	c.WaitTime += u.Wait
}

// TotalTokens sums all steps.
func (c Cost) TotalTokens() int {
	return c.InventionTokens + c.ImplementationTokens + c.BugFixTokens
}

// TotalTime sums all steps.
func (c Cost) TotalTime() time.Duration {
	return c.InventionTime + c.ImplementationTime + c.BugFixTime
}

// TotalQA sums QA rounds.
func (c Cost) TotalQA() int { return c.QAInvention + c.QAImplementation + c.QABugFix }

// DollarCost estimates the API spend at GPT-4 ChatCompletion pricing
// (the paper's ~$0.5/mutator figure).
func (c Cost) DollarCost() float64 {
	// Blended prompt/completion rate ≈ $0.06 per 1K tokens.
	return float64(c.TotalTokens()) / 1000 * 0.06
}

// Result is one MetaMut invocation's full record.
type Result struct {
	Invention llm.Invention
	Program   *mutdsl.Program // final implementation (nil on API error)
	Outcome   Outcome
	Cost      Cost
	// FixedByGoal counts refinement-loop repairs per goal (Table 1).
	FixedByGoal map[Goal]int
	// StaticCatches counts defect episodes the mutcheck linter reported
	// before any compile-and-run round; DynamicCatches counts episodes
	// only the dynamic validator saw. An episode is a maximal streak of
	// refinement rounds reporting the same goal — one defect resisting
	// repair for many rounds is counted once. Together they measure the
	// shift-left pipeline's reach.
	StaticCatches  map[Goal]int
	DynamicCatches map[Goal]int
	// Expert marks supervised-campaign author interventions.
	ExpertInterventions int
}

// Framework wires the pipeline together.
type Framework struct {
	Client llm.Client
	Params llm.Params
	// MaxRepairAttempts terminates the automatic fix procedure
	// (the paper uses 27).
	MaxRepairAttempts int
	// TestsPerMutator is the size of the generated unit-test suite.
	TestsPerMutator int
	// CoarseFeedback disables the staged goal ordering (ablation): the
	// model only ever hears "the mutant does not work" instead of the
	// simplest unmet goal's precise feedback.
	CoarseFeedback bool
	// NoStatic disables the mutcheck linter pass (ablation): every
	// defect costs a full compile-and-run QA round, reproducing the
	// paper's dynamic-only validation loop.
	NoStatic bool
	// Obs receives campaign telemetry (invocation spans,
	// invocations_total{outcome}, refinement_fixes_total{goal}, prepare
	// and simulated-wait accounting). nil disables instrumentation;
	// wire the same registry into the llm client via llm.Instrument to
	// also capture per-call token telemetry.
	Obs *obs.Registry
	// Retry bounds the supervised campaign's retry-through-API-error
	// loops (synthesize / generate-tests / fix). The zero value uses the
	// resil defaults (5 attempts, 250ms..30s exponential backoff).
	Retry resil.Policy
	// MaxDeferrals bounds how many times the supervised campaign
	// re-queues an invocation the circuit breaker deferred (default 3);
	// past it the invocation ends Deferred.
	MaxDeferrals int
	rng          *rand.Rand
	retrySeq     int64
}

// New returns a framework over the given model with the paper's
// configuration (temperature 0.8, top-p 0.95, 27 repair attempts).
func New(client llm.Client, seed int64) *Framework {
	return &Framework{
		Client:            client,
		Params:            llm.DefaultParams(),
		MaxRepairAttempts: 27,
		TestsPerMutator:   3,
		MaxDeferrals:      3,
		rng:               rand.New(rand.NewSource(seed)),
	}
}

// retrier opens one stage's bounded attempt budget. Its jitter seed is
// a private sequence counter — never the framework rng, whose draw
// order calibrates the simulated campaigns.
func (f *Framework) retrier(stage string) *resil.Retrier {
	f.retrySeq++
	p := f.Retry
	if p.Registry == nil {
		p.Registry = f.Obs
	}
	return p.Retrier(stage, f.retrySeq)
}

// prepareTime samples the request-preparation time (compile mutator, run
// over tests, collect feedback): Table 3 reports 0-69s, median 9s.
func (f *Framework) prepareTime() time.Duration {
	v := 9 * math.Exp(0.8*f.rng.NormFloat64())
	if v > 69 {
		v = 69
	}
	return time.Duration(v * float64(time.Second))
}

// GenerateOne runs the full Figure-1 pipeline once: invention →
// synthesis → validation/refinement → (simulated) manual verification.
// priorNames feeds the invention prompt's sampling hints.
func (f *Framework) GenerateOne(priorNames []string) Result {
	sp := f.Obs.Span("invocation")
	res := f.generateOne(priorNames)
	sp.End()
	f.recordInvocation(res)
	return res
}

// recordInvocation books one finished invocation's telemetry.
func (f *Framework) recordInvocation(res Result) {
	if f.Obs == nil {
		return
	}
	f.Obs.Counter("invocations_total", "outcome").With(res.Outcome.String()).Inc()
	fixes := f.Obs.Counter("refinement_fixes_total", "goal")
	for g, n := range res.FixedByGoal {
		fixes.With(goalDescriptions[g]).Add(int64(n))
	}
	f.Obs.Histogram("invocation_qa_rounds", obs.LinearBuckets(1, 4, 10)).
		With().Observe(float64(res.Cost.TotalQA()))
}

// recordPrepare books one refinement round's simulated prepare time
// (Table 3 row 2).
func (f *Framework) recordPrepare(d time.Duration) {
	f.Obs.Histogram("prepare_seconds", nil).With().Observe(d.Seconds())
}

// diagnose returns the simplest unmet validation goal with its feedback
// and whether it was found statically. The mutcheck linter runs first —
// on a mutator whose source compiles — and a lint Error becomes the QA
// feedback without spending the compile-and-run round; only when the
// linter is clean (or disabled via NoStatic) does the dynamic validator
// run, charging the paper's prepare time.
func (f *Framework) diagnose(prog *mutdsl.Program, tests []string, res *Result) (Goal, string, bool) {
	if !f.NoStatic {
		if _, err := mutdsl.Compile(prog); err == nil {
			if d, ok := mutcheck.FirstError(mutcheck.Lint(prog)); ok {
				msg := fmt.Sprintf("static analysis (%s): %s — %s", d.Check, d.Message, d.Fix)
				return Goal(d.Goal), msg, true
			}
		}
	}
	prep := f.prepareTime()
	res.Cost.BugFixTime += prep
	res.Cost.PrepareTime += prep
	f.recordPrepare(prep)
	goal, feedback := f.Validate(prog, tests)
	return goal, feedback, false
}

// recordCatch books one defect *episode* — the first refinement round
// that reports a given goal; consecutive rounds re-reporting the same
// goal are the same defect resisting repair, not new detections. lastGoal
// is the previous round's goal (goalAllMet on the first round).
func (f *Framework) recordCatch(goal, lastGoal Goal, static bool, res *Result) {
	if goal == lastGoal {
		return
	}
	if static {
		res.StaticCatches[goal]++
		if f.Obs != nil {
			f.Obs.Counter("static_catches_total", "goal").
				With(goalDescriptions[goal]).Inc()
		}
		llm.RecordStaticSavings(f.Obs, int(goal))
		return
	}
	res.DynamicCatches[goal]++
}

// recordInputParseFailure counts test programs the mutator could not
// even read (the input failed to parse, so no goal is assessable).
func (f *Framework) recordInputParseFailure() {
	if f.Obs != nil {
		f.Obs.Counter("mutator_input_parse_failures_total").With().Inc()
	}
}

// recordFuelExhausted counts a validation application that was cut off
// by the interpreter's fuel budget (mutdsl_fuel_exhausted_total).
func (f *Framework) recordFuelExhausted() {
	if f.Obs != nil {
		f.Obs.Counter("mutdsl_fuel_exhausted_total").With().Inc()
	}
}

func (f *Framework) generateOne(priorNames []string) Result {
	res := Result{FixedByGoal: map[Goal]int{},
		StaticCatches: map[Goal]int{}, DynamicCatches: map[Goal]int{}}

	// ❶ Mutator invention (one QA round).
	sp := f.Obs.Span("invent")
	inv, usage, err := f.Client.Invent(llm.Actions, llm.Structures, priorNames, f.Params)
	sp.End()
	res.Cost.QAInvention = 1
	res.Cost.InventionTokens = usage.TotalTokens()
	res.Cost.InventionTime = usage.Wait
	res.Cost.WaitTime += usage.Wait
	if err != nil {
		res.Outcome = apiOutcome(err)
		return res
	}
	res.Invention = inv

	// ❷ Implementation synthesis (one QA round).
	sp = f.Obs.Span("synthesize")
	prog, usage, err := f.Client.Synthesize(inv, f.Params)
	sp.End()
	res.Cost.QAImplementation = 1
	res.Cost.ImplementationTokens = usage.TotalTokens()
	res.Cost.ImplementationTime = usage.Wait
	res.Cost.WaitTime += usage.Wait
	if err != nil {
		res.Outcome = apiOutcome(err)
		return res
	}
	res.Program = prog

	// ❸ Validation and refinement. Test generation is the loop's first
	// QA round.
	sp = f.Obs.Span("generate-tests")
	tests, usage, err := f.Client.GenerateTests(inv, f.TestsPerMutator, f.Params)
	sp.End()
	res.Cost.bookBugFix(usage)
	if err != nil {
		res.Outcome = apiOutcome(err)
		return res
	}

	refineSpan := f.Obs.Span("refine")
	defer refineSpan.End()
	lastGoal := goalAllMet
	for attempt := 0; ; attempt++ {
		goal, feedback, static := f.diagnose(prog, tests, &res)
		if goal == goalAllMet {
			break
		}
		f.recordCatch(goal, lastGoal, static, &res)
		lastGoal = goal
		if attempt >= f.MaxRepairAttempts {
			res.Outcome = InvalidRefinementFailed
			res.Program = prog
			return res
		}
		reportGoal, reportMsg := goal, feedback
		if f.CoarseFeedback {
			reportGoal = GoalValidMutants
			reportMsg = "the mutator does not work as described"
		}
		fixed, usage, err := f.Client.Fix(prog, int(reportGoal), reportMsg, f.Params)
		res.Cost.bookBugFix(usage)
		if err != nil {
			res.Outcome = apiOutcome(err)
			return res
		}
		// Classify the repair (Table 1): a fix is credited only when the
		// specific defect was repaired. For goal #1 every resolved compile
		// error counts — a repair that introduces a *different* compile
		// error still fixed the reported one. Statically-reported defects
		// are re-checked with the linter, dynamic ones by re-running.
		switch {
		case static:
			if mutcheck.Violates(prog, int(goal)) && !mutcheck.Violates(fixed, int(goal)) {
				res.FixedByGoal[goal]++
			}
		case goal == GoalCompiles:
			if prog.SyntaxErr != "" && fixed.SyntaxErr != prog.SyntaxErr {
				res.FixedByGoal[goal]++
			}
		default:
			if f.ViolatesGoal(prog, tests, goal) && !f.ViolatesGoal(fixed, tests, goal) {
				res.FixedByGoal[goal]++
			}
		}
		prog = fixed
	}
	res.Program = prog

	// Manual verification (Section 4: two authors independently check
	// every likely-valid mutator).
	rates, hasRates := clientRates(f.Client)
	switch {
	case isDuplicateName(prog.Name, priorNames):
		res.Outcome = InvalidDuplicate
	case hasRates && f.rng.Float64() < rates.Mismatch:
		res.Outcome = InvalidMismatch
	case hasRates && f.rng.Float64() < rates.Unthorough:
		res.Outcome = InvalidUnthorough
	default:
		res.Outcome = Valid
	}
	return res
}

// apiOutcome classifies an LLM-call error: a breaker denial is a
// retryable deferral, anything else is the paper's terminal APIError.
func apiOutcome(err error) Outcome {
	if errors.Is(err, resil.ErrOpen) {
		return Deferred
	}
	return APIError
}

// clientRates surfaces the fault calibration of simulated models, looking
// through wrappers like llm.Recorder and llm.Guarded.
func clientRates(c llm.Client) (llm.FaultRates, bool) {
	switch x := c.(type) {
	case *llm.SimClient:
		return x.Rates(), true
	case *llm.Recorder:
		return clientRates(x.Inner)
	case *llm.Guarded:
		return clientRates(x.Inner)
	}
	return llm.FaultRates{}, false
}

// ViolatesGoal checks a single validation goal in isolation. Goals #2-#6
// are unassessable (reported as not violated) while the mutator does not
// compile.
func (f *Framework) ViolatesGoal(prog *mutdsl.Program, tests []string, goal Goal) bool {
	exe, err := mutdsl.Compile(prog)
	if goal == GoalCompiles {
		return err != nil
	}
	if err != nil {
		return false
	}
	anyWrote, anyChanged, badMutant := false, false, false
	hang, crash := false, false
	for _, test := range tests {
		out := exe.Apply(test, rand.New(rand.NewSource(int64(len(test)))))
		if out.ParseFailed {
			continue // the mutator never ran; no goal is assessable
		}
		if out.FuelExhausted {
			hang = true
			continue
		}
		if out.Crash {
			crash = true
			continue
		}
		if out.Wrote {
			anyWrote = true
		}
		if out.Changed {
			anyChanged = true
			if _, cerr := cast.ParseAndCheck(out.Output); cerr != nil {
				badMutant = true
			}
		}
	}
	switch goal {
	case GoalTerminates:
		return hang
	case GoalReturns:
		return crash
	case GoalOutputs:
		return !anyWrote
	case GoalChanges:
		return anyWrote && !anyChanged
	case GoalValidMutants:
		return badMutant
	}
	return false
}

func isDuplicateName(name string, prior []string) bool {
	for _, p := range prior {
		if p == name {
			return true
		}
	}
	return false
}

// Validate checks the six goals in order (simplest first) and returns
// the first unmet goal with its feedback message, or goalAllMet.
func (f *Framework) Validate(prog *mutdsl.Program, tests []string) (Goal, string) {
	// Goal #1: μ compiles.
	exe, err := mutdsl.Compile(prog)
	if err != nil {
		return GoalCompiles, err.Error()
	}
	anyWrote, anyChanged := false, false
	for _, test := range tests {
		// Deterministic per-application stream so validation is stable.
		out := exe.Apply(test, rand.New(rand.NewSource(int64(len(test)))))
		if out.ParseFailed {
			// The test itself is invalid; the mutator never ran. Count
			// it and keep the application out of every goal's evidence.
			f.recordInputParseFailure()
			continue
		}
		switch {
		case out.FuelExhausted:
			f.recordFuelExhausted()
			return GoalTerminates, fmt.Sprintf(
				"fuel exhausted: mutator burned its %d-unit budget without terminating\n<stack trace: %s::mutate>",
				exe.Fuel(), prog.Name)
		case out.Crash:
			return GoalReturns, out.CrashMsg
		}
		if out.Wrote {
			anyWrote = true
		}
		if out.Changed {
			anyChanged = true
			// Goal #6: the mutant must compile.
			if _, cerr := cast.ParseAndCheck(out.Output); cerr != nil {
				return GoalValidMutants, fmt.Sprintf(
					"mutant fails to compile: %v", cerr)
			}
		}
	}
	if !anyWrote {
		return GoalOutputs, "mutator produced no output on any test case"
	}
	if !anyChanged {
		return GoalChanges, "mutator changed nothing on any test case"
	}
	return goalAllMet, ""
}
