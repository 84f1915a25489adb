package core

import (
	"errors"
	"sort"

	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/mutdsl"
	"github.com/icsnju/metamut-go/internal/resil"
)

// RunUnsupervised executes the fully-automatic campaign: n MetaMut
// invocations with no human intervention (the paper runs 100, yielding
// 50 valid mutators). Valid mutator names feed back into the invention
// prompt's sampling hints.
func (f *Framework) RunUnsupervised(n int) []Result {
	return f.RunUnsupervisedProgress(n, nil)
}

// RunUnsupervisedProgress is RunUnsupervised with a live-status hook:
// progress (when non-nil) is invoked after every invocation with its
// 1-based index and result.
func (f *Framework) RunUnsupervisedProgress(n int, progress func(i int, res Result)) []Result {
	var results []Result
	var priorNames []string
	for i := 0; i < n; i++ {
		res := f.GenerateOne(priorNames)
		results = append(results, res)
		if res.Outcome == Valid {
			priorNames = append(priorNames, res.Program.Name)
		}
		if progress != nil {
			progress(i+1, res)
		}
	}
	return results
}

// RunSupervised executes the expert-in-the-loop campaign over the target
// mutator set (the paper's M_s, 68 mutators over ~two weeks): the expert
// provides the invention (a refined prompt outcome bound to a concrete
// registry mutator) and rescues any invocation the automatic loop cannot
// finish — debugging the implementation, adding test cases, or fixing
// the μAST APIs.
// Invocations the circuit breaker defers (Outcome Deferred) are re-queued
// at the back of the campaign, up to MaxDeferrals times each, so a
// throttle storm delays mutators instead of dropping them.
func (f *Framework) RunSupervised(target []*muast.Mutator) []Result {
	type job struct {
		mu        *muast.Mutator
		deferrals int
	}
	queue := make([]job, 0, len(target))
	for _, mu := range target {
		queue = append(queue, job{mu: mu})
	}
	var results []Result
	var priorNames []string
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		res := f.generateSupervisedOne(j.mu, priorNames)
		if res.Outcome == Deferred && j.deferrals < f.MaxDeferrals {
			queue = append(queue, job{mu: j.mu, deferrals: j.deferrals + 1})
			continue
		}
		results = append(results, res)
		if res.Outcome == Valid {
			priorNames = append(priorNames, j.mu.Name)
		}
	}
	return results
}

func (f *Framework) generateSupervisedOne(mu *muast.Mutator, priorNames []string) Result {
	sp := f.Obs.Span("invocation")
	res := f.supervisedOne(mu, priorNames)
	sp.EndWith(map[string]any{"outcome": res.Outcome.String(),
		"mutator": mu.Name, "tokens": res.Cost.TotalTokens()})
	f.recordInvocation(res)
	return res
}

// recordRetry counts an expert retry through an API error
// (llm_retries_total{stage}).
func (f *Framework) recordRetry(stage string) {
	if f.Obs != nil {
		f.Obs.Counter("llm_retries_total", "stage").With(stage).Inc()
	}
}

func (f *Framework) supervisedOne(mu *muast.Mutator, priorNames []string) Result {
	res := Result{FixedByGoal: map[Goal]int{},
		StaticCatches: map[Goal]int{}, DynamicCatches: map[Goal]int{}}
	inv := llm.Invention{
		Name:        mu.Name,
		Description: mu.Description,
		Creative:    mu.Creative,
	}
	res.Invention = inv
	res.Cost.QAInvention = 1

	// The expert retries through API errors with bounded, seeded backoff
	// rather than looping forever; a breaker denial defers the whole
	// invocation and an exhausted budget abandons it as APIError.
	sp := f.stageSpan("synthesize")
	var prog *mutdsl.Program
	rt := f.retrier(llm.StageImplementation)
	for {
		p, usage, err := f.Client.Synthesize(inv, f.Params)
		res.Cost.QAImplementation++
		res.Cost.ImplementationTokens += usage.TotalTokens()
		res.Cost.ImplementationTime += usage.Wait
		res.Cost.WaitTime += usage.Wait
		if err == nil {
			prog = p
			break
		}
		if errors.Is(err, resil.ErrOpen) {
			sp.End()
			res.Outcome = Deferred
			return res
		}
		f.recordRetry(llm.StageImplementation)
		if wait, ok := rt.Next(); ok {
			res.Cost.WaitTime += wait
			continue
		}
		sp.End()
		res.Outcome = APIError
		return res
	}
	sp.End()
	prog.Name = mu.Name
	prog.Description = mu.Description

	sp = f.stageSpan("generate-tests")
	var tests []string
	rt = f.retrier(llm.StageTestGen)
	for {
		t, usage, err := f.Client.GenerateTests(inv, f.TestsPerMutator, f.Params)
		res.Cost.QABugFix++
		res.Cost.BugFixTokens += usage.TotalTokens()
		res.Cost.BugFixTime += usage.Wait
		res.Cost.WaitTime += usage.Wait
		if err == nil {
			tests = t
			break
		}
		if errors.Is(err, resil.ErrOpen) {
			sp.End()
			res.Outcome = Deferred
			return res
		}
		f.recordRetry(llm.StageTestGen)
		if wait, ok := rt.Next(); ok {
			res.Cost.WaitTime += wait
			continue
		}
		sp.End()
		res.Outcome = APIError
		return res
	}
	sp.End()

	refineSpan := f.stageSpan("refine")
	defer refineSpan.End()
	lastGoal := goalAllMet
	rt = f.retrier(llm.StageBugFix)
	for attempt := 0; ; attempt++ {
		goal, feedback, static := f.diagnose(prog, tests, &res)
		if goal == goalAllMet {
			break
		}
		f.recordCatch(goal, lastGoal, static, &res)
		lastGoal = goal
		if attempt >= f.MaxRepairAttempts {
			// Expert intervention: diagnose and fix directly.
			res.ExpertInterventions++
			if f.Obs != nil {
				f.Obs.Counter("expert_interventions_total").With().Inc()
			}
			prog = expertFix(prog)
			continue
		}
		fixed, usage, err := f.Client.Fix(prog, int(goal), feedback, f.Params)
		res.Cost.QABugFix++
		res.Cost.BugFixTokens += usage.TotalTokens()
		res.Cost.BugFixTime += usage.Wait
		res.Cost.WaitTime += usage.Wait
		if err != nil {
			if errors.Is(err, resil.ErrOpen) {
				res.Outcome = Deferred
				return res
			}
			f.recordRetry(llm.StageBugFix)
			if wait, ok := rt.Next(); ok {
				res.Cost.WaitTime += wait
				continue // expert retries through throttling
			}
			res.Outcome = APIError
			return res
		}
		rt = f.retrier(llm.StageBugFix) // fresh budget per successful round
		if static {
			if mutcheck.Violates(prog, int(goal)) && !mutcheck.Violates(fixed, int(goal)) {
				res.FixedByGoal[goal]++
			}
		} else if f.ViolatesGoal(prog, tests, goal) && !f.ViolatesGoal(fixed, tests, goal) {
			res.FixedByGoal[goal]++
		}
		prog = fixed
	}
	res.Program = prog
	// The expert also repairs post-hoc mismatches, so every supervised
	// mutator ends Valid (all 68 M_s mutators are confirmed valid).
	res.Outcome = Valid
	return res
}

// expertFix is the author stepping in: all residual defects removed, and
// — unlike the LLM's flag-level repairs — an inherently broken rewrite is
// replaced with a known-good implementation for the target kind. Without
// this, a "Destruct FunctionDecl"-style invention could never converge.
func expertFix(p *mutdsl.Program) *mutdsl.Program {
	fixed := p.Clone()
	fixed.SyntaxErr = ""
	fixed.HangBug = false
	fixed.CrashBug = false
	fixed.NoOutputBug = false
	fixed.NoRewriteBug = false
	fixed.BadMutantBug = false
	fixed.Steps = mutdsl.SafeStepsFor(fixed.TargetKind)
	return fixed
}

// ---------------------------------------------------------------------
// Campaign statistics (Tables 1-3, Section 4.1)
// ---------------------------------------------------------------------

// Summary is a min/max/median/mean row as printed in Tables 2 and 3.
type Summary struct {
	Min, Max, Median, Mean float64
}

// Summarize computes a Summary over values; the zero Summary for empty
// input.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: sorted[len(sorted)/2],
		Mean:   sum / float64(len(sorted)),
	}
}

// CampaignStats aggregates a campaign's results.
type CampaignStats struct {
	Results []Result

	Invocations int
	ByOutcome   map[Outcome]int
	// FixedByGoal reproduces Table 1: refinement-loop repairs by goal.
	FixedByGoal map[Goal]int
	// StaticCatches / DynamicCatches split defect detections between the
	// mutcheck linter and the compile-and-run validator; TokensSaved is
	// the estimated feedback-token spend the static rounds avoided.
	StaticCatches  map[Goal]int
	DynamicCatches map[Goal]int
	TokensSaved    int

	// Token/QA/time summaries over valid mutators (Table 2's rows).
	TokensInvention      Summary
	TokensImplementation Summary
	TokensBugFix         Summary
	TokensTotal          Summary
	QABugFix             Summary
	QATotal              Summary
	TimeInvention        Summary // seconds
	TimeImplementation   Summary
	TimeBugFix           Summary
	TimeTotal            Summary

	// Wait/prepare per valid mutator (Table 3), in seconds per QA round.
	WaitPerRound    Summary
	PreparePerRound Summary

	// MeanDollarCost is the ~$0.5 figure.
	MeanDollarCost float64
}

// Analyze computes the campaign statistics.
func Analyze(results []Result) *CampaignStats {
	st := &CampaignStats{
		Results:        results,
		Invocations:    len(results),
		ByOutcome:      map[Outcome]int{},
		FixedByGoal:    map[Goal]int{},
		StaticCatches:  map[Goal]int{},
		DynamicCatches: map[Goal]int{},
	}
	var tokInv, tokImpl, tokFix, tokTot []float64
	var qaFix, qaTot []float64
	var tInv, tImpl, tFix, tTot []float64
	var waits, preps []float64
	dollars := 0.0
	valid := 0
	for _, r := range results {
		st.ByOutcome[r.Outcome]++
		for g, n := range r.FixedByGoal {
			st.FixedByGoal[g] += n
		}
		for g, n := range r.StaticCatches {
			st.StaticCatches[g] += n
			st.TokensSaved += llm.DynamicFeedbackTokens[int(g)] * n
		}
		for g, n := range r.DynamicCatches {
			st.DynamicCatches[g] += n
		}
		if r.Outcome != Valid {
			continue
		}
		valid++
		c := r.Cost
		tokInv = append(tokInv, float64(c.InventionTokens))
		tokImpl = append(tokImpl, float64(c.ImplementationTokens))
		tokFix = append(tokFix, float64(c.BugFixTokens))
		tokTot = append(tokTot, float64(c.TotalTokens()))
		qaFix = append(qaFix, float64(c.QABugFix))
		qaTot = append(qaTot, float64(c.TotalQA()))
		tInv = append(tInv, c.InventionTime.Seconds())
		tImpl = append(tImpl, c.ImplementationTime.Seconds())
		tFix = append(tFix, c.BugFixTime.Seconds())
		tTot = append(tTot, c.TotalTime().Seconds())
		rounds := float64(c.TotalQA())
		if rounds > 0 {
			waits = append(waits, c.WaitTime.Seconds()/rounds)
			preps = append(preps, c.PrepareTime.Seconds()/rounds)
		}
		dollars += c.DollarCost()
	}
	st.TokensInvention = Summarize(tokInv)
	st.TokensImplementation = Summarize(tokImpl)
	st.TokensBugFix = Summarize(tokFix)
	st.TokensTotal = Summarize(tokTot)
	st.QABugFix = Summarize(qaFix)
	st.QATotal = Summarize(qaTot)
	st.TimeInvention = Summarize(tInv)
	st.TimeImplementation = Summarize(tImpl)
	st.TimeBugFix = Summarize(tFix)
	st.TimeTotal = Summarize(tTot)
	st.WaitPerRound = Summarize(waits)
	st.PreparePerRound = Summarize(preps)
	if valid > 0 {
		st.MeanDollarCost = dollars / float64(valid)
	}
	return st
}

// ValidCount returns the number of valid mutators.
func (st *CampaignStats) ValidCount() int { return st.ByOutcome[Valid] }

// SurvivedInvocations returns invocations that were not killed by API
// errors (the paper's "remaining 76") or left deferred by the breaker.
func (st *CampaignStats) SurvivedInvocations() int {
	return st.Invocations - st.ByOutcome[APIError] - st.ByOutcome[Deferred]
}

// TotalFixes returns the Table-1 grand total.
func (st *CampaignStats) TotalFixes() int {
	n := 0
	for _, v := range st.FixedByGoal {
		n += v
	}
	return n
}
