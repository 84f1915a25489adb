package mutcheck

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// heapReject is Reject's reference: the same classification over a
// fresh heap parse (cast.Parse + cast.Check).
func heapReject(src string) (string, bool) {
	tu, err := cast.Parse(src)
	if err != nil {
		return CheckParseError, true
	}
	if err := cast.Check(tu); err != nil {
		if errs, ok := err.(cast.SemaErrors); ok && len(errs) > 0 {
			return classifySema(errs[0].Msg), true
		}
		return CheckSemaError, true
	}
	return "", false
}

// rejectCorpus mixes seed programs, their mutants under every registered
// mutator, truncations, identifier damage and garbage, interleaved so
// consecutive Reject calls reuse a pooled arena across very different
// trees (valid, parse-error and sema-error inputs).
func rejectCorpus(t *testing.T) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var out []string
	for _, seed := range []int64{1, 2, 3} {
		for _, src := range seeds.Generate(4, seed) {
			out = append(out, src, src[:len(src)/3], src[:2*len(src)/3],
				strings.Replace(src, "return", "retrun", 1),
				strings.Replace(src, "int ", "struct Q ", 1))
			for _, mu := range muast.All() {
				mgr, err := muast.NewManager(src, rng)
				if err != nil {
					t.Fatalf("seed corpus program fails to parse: %v", err)
				}
				if mutant, ok := mu.Apply(src, mgr); ok {
					out = append(out, mutant, mutant[:rng.Intn(len(mutant)+1)])
				}
			}
		}
	}
	garbage := make([]byte, 64)
	for i := 0; i < 16; i++ {
		rng.Read(garbage)
		out = append(out, string(garbage))
	}
	return append(out, "", "}", "int main(void) { return 0 }", "int x = ;")
}

// TestRejectArenaMatchesHeap pins the pooled-arena Reject against the
// heap parse it replaced: identical (check, reject) on every input.
func TestRejectArenaMatchesHeap(t *testing.T) {
	checks := map[string]int{}
	for i, src := range rejectCorpus(t) {
		wantCheck, wantRej := heapReject(src)
		gotCheck, gotRej := Reject(src)
		if gotCheck != wantCheck || gotRej != wantRej {
			t.Fatalf("input %d: Reject = (%q, %v), heap parse = (%q, %v)\n%s",
				i, gotCheck, gotRej, wantCheck, wantRej, src)
		}
		checks[gotCheck]++
	}
	if checks[CheckParseError] == 0 || len(checks) < 3 {
		t.Fatalf("corpus verdicts %v lack parse or sema rejections; the comparison is one-sided", checks)
	}
}

// TestFrontClassifyMatchesReject pins the fuzzers' static filter to
// Reject: on one reused compile context, Context.Front returns nil
// exactly when Reject accepts, and Classify of its error names Reject's
// check — and both agree with heapReject's independent classification.
// The corpus adds truncations of every seed at several offsets to
// rejectCorpus's seeds, mutants and garbage, plus one program per common
// sema class and one whose sema errors fall in two classes (the first
// names the check).
func TestFrontClassifyMatchesReject(t *testing.T) {
	corpus := rejectCorpus(t)
	for _, src := range seeds.Generate(4, 9) {
		for k := 1; k < 8; k++ {
			corpus = append(corpus, src[:k*len(src)/8])
		}
	}
	corpus = append(corpus,
		"int main(void) { return undeclared_name; }",
		"int main(void) { goto nowhere; }",
		"int main(void) { break; }",
		"int f(int a) { return a; } int main(void) { return f(); }",
		"int main(void) { int x; int x; return 0; }",
		"int main(void) { break; return undeclared_name; }")
	cx := compilersim.New("gcc", 14).NewContext()
	checks := map[string]int{}
	for i, src := range corpus {
		wantCheck, wantRej := Reject(src)
		if refCheck, refRej := heapReject(src); refCheck != wantCheck || refRej != wantRej {
			t.Fatalf("input %d: Reject = (%q, %v), heap parse = (%q, %v)\n%s",
				i, wantCheck, wantRej, refCheck, refRej, src)
		}
		err := cx.Front(src)
		if (err != nil) != wantRej {
			t.Fatalf("input %d: Front error %v, Reject = (%q, %v)\n%s", i, err, wantCheck, wantRej, src)
		}
		if err != nil {
			if got := Classify(err); got != wantCheck {
				t.Fatalf("input %d: Classify = %q, Reject = %q\n%s", i, got, wantCheck, src)
			}
		}
		checks[wantCheck]++
	}
	if checks[CheckParseError] == 0 || checks[""] == 0 || len(checks) < 7 {
		t.Fatalf("corpus verdicts %v lack accepts, parse or sema rejections; the comparison is one-sided", checks)
	}
}

// TestRejectArenaMatchesHeapConcurrent runs the same comparison from
// several goroutines over the shared arena pool (meaningful under
// -race): each call must own its arena exclusively.
func TestRejectArenaMatchesHeapConcurrent(t *testing.T) {
	corpus := rejectCorpus(t)
	type verdict struct {
		check string
		rej   bool
	}
	want := make([]verdict, len(corpus))
	for i, src := range corpus {
		want[i].check, want[i].rej = heapReject(src)
	}
	const workers = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range corpus {
				i := (k + w*len(corpus)/workers) % len(corpus)
				if check, rej := Reject(corpus[i]); check != want[i].check || rej != want[i].rej {
					errs <- corpus[i]
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for src := range errs {
		t.Errorf("concurrent Reject disagrees with the heap parse on:\n%s", src)
	}
}
