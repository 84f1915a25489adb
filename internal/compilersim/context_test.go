package compilersim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/seeds"
)

// parenDepthProg is valid C that trips the gcc paren-depth front-end
// defect (TestFrontEndBugOnInvalidInput): the front end accepts it, and
// only the defect check that opens the back half crashes.
var parenDepthProg = "int f(void) { return " + strings.Repeat("(", 45) + "1" +
	strings.Repeat(")", 45) + "; }"

// contextCorpus mixes the paths a fuzz campaign actually exercises:
// clean seeds (full pipeline), truncated seeds (parse errors), corrupted
// seeds (lex/sema errors), a front-end crash, and the empty program.
func contextCorpus() []string {
	pool := seeds.Generate(16, 11)
	corpus := append([]string{}, pool...)
	for _, src := range pool[:6] {
		if len(src) > 20 {
			corpus = append(corpus, src[:len(src)/2]) // mid-token truncation
		}
		corpus = append(corpus, src+"\n@#$ garbage ;;;")
		corpus = append(corpus, "int main() { return undeclared_name; }\n"+src)
	}
	return append(corpus, parenDepthProg, "", "int main() { return 0; }")
}

// TestContextCompileMatchesCompilerCompile pins the reusable-context
// fast paths to the allocating reference path: for every corpus program
// and option set, Context.Compile and Front followed by Finish must each
// produce a Result identical in every field to Compiler.Compile — same
// diagnostics, same crash, same coverage bits, same generated object.
// The only sanctioned difference is ownership (the context's Result is
// borrowed until its next Compile or Front), which is why each result is
// compared before the context is reused.
func TestContextCompileMatchesCompilerCompile(t *testing.T) {
	comp := New("gcc", 14)
	cx := comp.NewContext()
	optionSets := []Options{
		{OptLevel: 0},
		DefaultOptions(),
		{OptLevel: 3, DisabledPasses: []string{"loopvec"}},
	}
	for _, opts := range optionSets {
		for i, src := range contextCorpus() {
			want := normalize(comp.Compile(src, opts))
			got := normalize(cx.Compile(src, opts))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("corpus[%d] %s: context result diverged from compiler result\n got %+v\nwant %+v",
					i, opts.FlagString(), got, want)
			}
			cx.Front(src)
			split := normalize(cx.Finish(opts))
			if !reflect.DeepEqual(split, want) {
				t.Fatalf("corpus[%d] %s: Front+Finish result diverged from compiler result\n got %+v\nwant %+v",
					i, opts.FlagString(), split, want)
			}
		}
	}
}

// normalize returns r with empty buffers folded into nil. The reusable
// context truncates its instruction and diagnostic buffers to length
// zero where a fresh compile or a clone leaves them nil (an empty
// translation unit; a crash with no diagnostics); the two are the same
// object code and the same diagnostics. It copies the Object rather
// than writing through it, because a cached result is shared.
func normalize(r Result) Result {
	if r.Object != nil && len(r.Object.Instrs) == 0 {
		o := *r.Object
		o.Instrs = nil
		r.Object = &o
	}
	if len(r.Diagnostics) == 0 {
		r.Diagnostics = nil
	}
	return r
}

// TestFrontAcceptsFrontEndCrash pins where the front-end defect check
// lives after the split: Front accepts the paren-depth program (it is
// valid C and Front checks no defects), and Finish crashes it in the
// front end — so a statically rejected mutant never reaches the check,
// while an accepted one still does.
func TestFrontAcceptsFrontEndCrash(t *testing.T) {
	cx := New("gcc", 14).NewContext()
	if err := cx.Front(parenDepthProg); err != nil {
		t.Fatalf("Front rejected valid C: %v", err)
	}
	res := cx.Finish(DefaultOptions())
	if res.Crash == nil || res.Crash.Component != FrontEnd {
		t.Fatalf("Finish = %+v, want a front-end crash", res)
	}
}

// TestCompileConcurrentSharedCompiler runs the engine's sharing pattern
// (meaningful under -race): goroutines share one cache-enabled
// Compiler — its context pool and mutex-guarded mutant cache — each
// calling Compiler.Compile and Front/Finish on its own context over the
// corpus. Every result must equal the sequential one.
func TestCompileConcurrentSharedCompiler(t *testing.T) {
	corpus := contextCorpus()
	opts := DefaultOptions()
	want := make([]Result, len(corpus))
	ref := New("gcc", 14)
	for i, src := range corpus {
		want[i] = normalize(ref.Compile(src, opts))
	}
	comp := New("gcc", 14)
	comp.EnableMutantCache(len(corpus))
	const workers = 4
	errs := make(chan string, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cx := comp.NewContext()
			for round := 0; round < 2; round++ {
				for k := range corpus {
					i := (k + w*len(corpus)/workers) % len(corpus)
					owned := normalize(comp.Compile(corpus[i], opts))
					if !reflect.DeepEqual(owned, want[i]) {
						errs <- "Compiler.Compile: " + corpus[i]
						return
					}
					cx.Front(corpus[i])
					split := normalize(cx.Finish(opts))
					if !reflect.DeepEqual(split, want[i]) {
						errs <- "Front+Finish: " + corpus[i]
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent result diverged from the sequential one on %s", e)
	}
	if hits, _ := comp.CacheStats(); hits == 0 {
		t.Error("no mutant-cache hits; shared cached results went unexercised")
	}
}

// TestContextCompileBorrowIsStable pins the borrow contract's useful
// half: the returned Result is valid until the next Compile on the same
// context, so a caller may read coverage and crash data from compile i
// before issuing compile i+1, and reuse must not leak state between
// programs (a dirty arena or token buffer would desynchronize the
// coverage bits from the reference path above).
func TestContextCompileBorrowIsStable(t *testing.T) {
	comp := New("gcc", 14)
	cx := comp.NewContext()
	opts := DefaultOptions()
	corpus := contextCorpus()
	for i, src := range corpus {
		res := cx.Compile(src, opts)
		cov := res.Coverage.Clone()
		again := cx.Compile(src, opts)
		if !reflect.DeepEqual(again.Coverage, cov) {
			t.Fatalf("corpus[%d]: recompiling the same program on the same context changed coverage", i)
		}
	}
}
