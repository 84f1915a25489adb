package compilersim

import (
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim/ir"
)

const validProgram = `
int acc;
int work(int a, int b) {
    int i;
    int total = 0;
    for (i = 0; i < 10; i++) {
        total += a * b + i;
    }
    if (total > 50) { total -= 25; } else { total += 25; }
    while (total % 3) { total--; }
    switch (total & 3) {
    case 0: total += 1; break;
    case 1: total += 2; break;
    default: total += 3; break;
    }
    return total;
}
int main(void) {
    acc = work(3, 4);
    return acc & 0xff;
}
`

func TestCompileValidProgram(t *testing.T) {
	for _, profile := range []string{"gcc", "clang"} {
		c := New(profile, 14)
		res := c.Compile(validProgram, DefaultOptions())
		if res.Crash != nil {
			t.Fatalf("%s: unexpected crash %v", profile, res.Crash)
		}
		if !res.OK {
			t.Fatalf("%s: compilation rejected: %v", profile, res.Diagnostics)
		}
		if res.Object == nil || len(res.Object.Instrs) == 0 {
			t.Fatalf("%s: no code generated", profile)
		}
		if res.Coverage.Count() == 0 {
			t.Fatalf("%s: no coverage recorded", profile)
		}
	}
}

func TestCompileInvalidProgram(t *testing.T) {
	c := New("gcc", 14)
	res := c.Compile("int f( {", DefaultOptions())
	if res.OK {
		t.Fatal("invalid program accepted")
	}
	if len(res.Diagnostics) == 0 {
		t.Fatal("no diagnostics for invalid program")
	}
	if res.Coverage.Count() == 0 {
		t.Fatal("invalid input should still produce front-end coverage")
	}
}

func TestSemanticErrorProgram(t *testing.T) {
	c := New("clang", 18)
	res := c.Compile("int f(void) { return undeclared_name_xyz; }", DefaultOptions())
	if res.OK {
		t.Fatal("semantically invalid program accepted")
	}
	found := false
	for _, d := range res.Diagnostics {
		if strings.Contains(d, "undeclared") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing undeclared diagnostic: %v", res.Diagnostics)
	}
}

func TestCoverageGrowsWithInputDiversity(t *testing.T) {
	c := New("gcc", 14)
	r1 := c.Compile("int f(void) { return 1; }", DefaultOptions())
	r2 := c.Compile(validProgram, DefaultOptions())
	if r2.Coverage.Count() <= r1.Coverage.Count() {
		t.Errorf("richer program should cover more edges: %d vs %d",
			r2.Coverage.Count(), r1.Coverage.Count())
	}
}

func TestCoverageDeterministic(t *testing.T) {
	c := New("gcc", 14)
	r1 := c.Compile(validProgram, DefaultOptions())
	r2 := c.Compile(validProgram, DefaultOptions())
	if r1.Coverage.Count() != r2.Coverage.Count() {
		t.Fatal("coverage not deterministic")
	}
	if r1.Coverage.HasNew(r2.Coverage) {
		t.Fatal("second identical compile covered new edges")
	}
}

func TestOptLevelsChangeCoverage(t *testing.T) {
	c := New("gcc", 14)
	r0 := c.Compile(validProgram, Options{OptLevel: 0})
	r2 := c.Compile(validProgram, Options{OptLevel: 2})
	if !r0.OK || !r2.OK {
		t.Fatal("compiles failed")
	}
	if r2.Coverage.Count() <= r0.Coverage.Count() {
		t.Errorf("-O2 should cover optimizer edges beyond -O0: %d vs %d",
			r2.Coverage.Count(), r0.Coverage.Count())
	}
}

// TestFrontEndBugOnInvalidInput verifies error-recovery defects fire for
// garbage inputs — the AFL++ discovery channel.
func TestFrontEndBugOnInvalidInput(t *testing.T) {
	c := New("gcc", 14)
	deep := strings.Repeat("(", 45) + "1" + strings.Repeat(")", 45)
	res := c.Compile("int f(void) { return "+deep+"; }", DefaultOptions())
	if res.Crash == nil {
		t.Fatal("paren-depth defect did not fire")
	}
	if res.Crash.Component != FrontEnd {
		t.Fatalf("crash in %v, want Front-End", res.Crash.Component)
	}
	if res.Crash.Signature() == "" {
		t.Fatal("empty crash signature")
	}
}

// TestStrlenOptBug reproduces the paper's verify_range crash: sprintf of
// a const (non-NUL-guaranteed) buffer into itself under -O2.
func TestStrlenOptBug(t *testing.T) {
	src := `
char const volatile buffer[32];
int test4(void) { return sprintf(buffer, "%s", buffer); }
int main(void) { if (test4() != 3) abort(); return 0; }
`
	c := New("gcc", 14)
	res := c.Compile(src, DefaultOptions())
	if res.Crash == nil {
		t.Fatalf("strlen-opt defect did not fire; feats=%v", FeatureNames(res.Feats))
	}
	if res.Crash.Component != Opt {
		t.Fatalf("crash in %v, want Opt", res.Crash.Component)
	}
	if res.Crash.Frames[0] != "verify_range" {
		t.Fatalf("frames = %v", res.Crash.Frames)
	}
	// At -O0 the strlen pass does not run: no crash.
	res0 := c.Compile(src, Options{OptLevel: 0})
	if res0.Crash != nil {
		t.Fatalf("-O0 must not reach the optimizer defect, got %v", res0.Crash)
	}
}

// TestRet2VBug reproduces Clang #63762's shape: a void function with
// empty labels and no returns.
func TestRet2VBug(t *testing.T) {
	src := `
void foo(int x, int y) {
    if (x > y) goto gt;
    goto lt;
gt: ;
lt: ;
}
int main(void) { foo(1, 2); return 0; }
`
	c := New("clang", 18)
	res := c.Compile(src, DefaultOptions())
	if res.Crash == nil {
		t.Fatalf("Ret2V defect did not fire; feats=%v", FeatureNames(res.Feats))
	}
	if res.Crash.Component != IRGen {
		t.Fatalf("crash in %v, want IR", res.Crash.Component)
	}
}

func TestHangReported(t *testing.T) {
	// GCC #111820 shape: zero-initialized decremented induction over a
	// vectorizable body.
	src := `
int r_0; int r1; int r2; int r3; int r4; int r5;
void f(void) {
    int n = 0;
    while (--n) {
        r_0 += r5 * n; r1 += r_0 * n; r2 += r1 * n;
        r3 += r2 * n; r4 += r3 * n; r5 += r4 * n;
    }
}
int main(void) { f(); return 0; }
`
	c := New("gcc", 14)
	res := c.Compile(src, DefaultOptions())
	if res.Crash == nil || !res.Hang {
		t.Fatalf("vectorizer hang did not fire; crash=%v feats=%v",
			res.Crash, FeatureNames(res.Feats))
	}
	// Disabling the vectorizer (-fno-tree-vectorize) avoids the hang.
	res2 := c.Compile(src, Options{OptLevel: 2, DisabledPasses: []string{"loopvec"}})
	if res2.Hang {
		t.Fatal("hang fired with vectorizer disabled")
	}
}

// bugStats counts a defect corpus per component and per kind.
func bugStats(bugs []Bug) map[string]int {
	out := map[string]int{}
	for _, b := range bugs {
		out[b.Component.String()]++
		out[b.Kind.String()]++
	}
	return out
}

func TestBugCorpusShape(t *testing.T) {
	gcc, clang := New("gcc", 14), New("clang", 18)
	gs, cs := bugStats(gcc.Bugs()), bugStats(clang.Bugs())
	if gs["Front-End"] != 16 || gs["IR"] != 18 || gs["Opt"] != 14 || gs["Back-End"] != 2 {
		t.Errorf("gcc defect distribution off: %v", gs)
	}
	if cs["Front-End"] != 20 || cs["IR"] != 18 || cs["Opt"] != 5 || cs["Back-End"] != 9 {
		t.Errorf("clang defect distribution off: %v", cs)
	}
	// Assertion failures must dominate (85% in Table 6).
	for _, s := range []map[string]int{gs, cs} {
		if s["Assertion Failure"] <= s["Segmentation Fault"]+s["Hang"] {
			t.Errorf("assertion failures should dominate: %v", s)
		}
	}
	// All signatures must be unique (dedup key).
	seen := map[string]bool{}
	for _, b := range append(gcc.Bugs(), clang.Bugs()...) {
		sig := b.Frames[0] + "|" + b.Frames[1]
		if seen[sig] {
			t.Errorf("duplicate crash signature %q", sig)
		}
		seen[sig] = true
	}
}

func TestIRGeneration(t *testing.T) {
	c := New("gcc", 14)
	res := c.Compile(validProgram, Options{OptLevel: 0})
	if !res.OK {
		t.Fatalf("compile failed: %v", res.Diagnostics)
	}
	// Direct IR inspection via GenerateIR.
	tu, err := parseChecked(validProgram)
	if err != nil {
		t.Fatal(err)
	}
	prog := GenerateIR(tu, nopTracer(), Features{})
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(prog.Funcs))
	}
	work := prog.FuncByName("work")
	if work == nil {
		t.Fatal("work not lowered")
	}
	if work.NParams != 2 {
		t.Errorf("work params = %d", work.NParams)
	}
	if len(work.Blocks) < 8 {
		t.Errorf("work blocks = %d, want >= 8 (loop+if+while+switch)", len(work.Blocks))
	}
	// All successor references must be in range, every block terminated.
	for _, b := range work.Blocks {
		for _, s := range b.Succs {
			if s < 0 || s >= len(work.Blocks) {
				t.Errorf("block %d has out-of-range successor %d", b.ID, s)
			}
		}
		if len(b.Instrs) > 0 && b.Terminator() == nil {
			t.Errorf("block %d not terminated", b.ID)
		}
	}
	_ = ir.OpAdd
}
