package compilersim

import (
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim/ir"
)

func TestLowerSwitchDispatch(t *testing.T) {
	prog := lowered(t, `
int f(int x) {
    int r = 0;
    switch (x) {
    case 1: r = 10; break;
    case 2: r = 20; /* fallthrough */
    case 3: r = 30; break;
    default: r = 99; break;
    }
    return r;
}
int main(void) { return f(2); }
`)
	f := prog.FuncByName("f")
	var sw *ir.Instr
	var swBlock *ir.Block
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSwitch {
				sw = &b.Instrs[i]
				swBlock = b
			}
		}
	}
	if sw == nil {
		t.Fatal("no switch dispatch emitted")
	}
	if len(sw.Cases) != 3 {
		t.Errorf("cases = %v, want 3 values", sw.Cases)
	}
	// 3 case targets + default.
	if len(swBlock.Succs) != 4 {
		t.Errorf("dispatch successors = %d, want 4", len(swBlock.Succs))
	}
}

func TestLowerShortCircuit(t *testing.T) {
	prog := lowered(t, `
int g(void);
int f(int a) { return a > 0 && g() > 1; }
int main(void) { return f(1); }
`)
	f := prog.FuncByName("f")
	// Short-circuit lowering introduces a conditional branch before the
	// call: on the false arm, g must not run.
	sawCondBeforeCall := false
	callSeen := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == "g" {
				callSeen = true
			}
			if in.Op == ir.OpCondBr && !callSeen {
				sawCondBeforeCall = true
			}
		}
	}
	if !callSeen {
		t.Fatal("call to g not lowered")
	}
	if !sawCondBeforeCall {
		t.Error("no branch guards the right-hand side: && not short-circuited")
	}
}

func TestLowerGotoResolvesForward(t *testing.T) {
	prog := lowered(t, `
int f(int n) {
    if (n > 0) goto out;
    n = -n;
out:
    return n;
}
int main(void) { return f(-3); }
`)
	f := prog.FuncByName("f")
	// Every successor reference must resolve within the function.
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				t.Fatalf("goto produced dangling successor %d", s)
			}
		}
	}
}

func TestLowerGlobalsAndStrings(t *testing.T) {
	prog := lowered(t, `
int counter;
const char greeting[6] = "hello";
int main(void) {
    const char *p = "world";
    counter = (int)strlen(p);
    return counter;
}
`)
	if len(prog.Globals) < 3 { // counter, greeting, interned "world"
		t.Fatalf("globals = %d, want >= 3", len(prog.Globals))
	}
	var interned *ir.Global
	for i := range prog.Globals {
		if prog.Globals[i].NulTerminated {
			interned = &prog.Globals[i]
		}
	}
	if interned == nil {
		t.Fatal("string literal not interned as NUL-terminated global")
	}
	if interned.Size != 6 { // "world" + NUL
		t.Errorf("interned size = %d, want 6", interned.Size)
	}
}

func TestLowerCompoundAssignLoadOpStore(t *testing.T) {
	prog := lowered(t, `
int g;
int main(void) { g += 5; return g; }
`)
	f := prog.FuncByName("main")
	var seq []ir.Op
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			seq = append(seq, in.Op)
		}
	}
	// Expect load, add, store somewhere in order.
	idx := func(op ir.Op, from int) int {
		for i := from; i < len(seq); i++ {
			if seq[i] == op {
				return i
			}
		}
		return -1
	}
	l := idx(ir.OpLoad, 0)
	a := idx(ir.OpAdd, l+1)
	s := idx(ir.OpStore, a+1)
	if l < 0 || a < 0 || s < 0 {
		t.Fatalf("compound assignment sequence wrong: %v", seq)
	}
}

func TestLowerFieldOffsets(t *testing.T) {
	prog := lowered(t, `
struct mix { char c; int i; char d; };
struct mix g;
int main(void) {
    g.c = 1;
    g.i = 2;
    g.d = 3;
    return g.i;
}
`)
	f := prog.FuncByName("main")
	// The store offsets must reflect the padded layout: c@0, i@4, d@8.
	var offsets []int64
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && in.B.Kind == ir.VConst {
				offsets = append(offsets, in.B.ID)
			}
		}
	}
	want := map[int64]bool{0: true, 4: true, 8: true}
	for _, o := range offsets {
		delete(want, o)
	}
	if len(want) != 0 {
		t.Errorf("field offsets %v missing from stores %v", want, offsets)
	}
}

func TestLowerBreakContinue(t *testing.T) {
	prog := lowered(t, `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i == 3) continue;
        if (i == 7) break;
        s += i;
    }
    return s;
}
int main(void) { return f(10); }
`)
	f := prog.FuncByName("f")
	if len(f.Blocks) < 8 {
		t.Errorf("loop with break/continue lowered to only %d blocks", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if s < 0 || s >= len(f.Blocks) {
				t.Fatalf("dangling successor %d", s)
			}
		}
	}
}

func TestGenerateCodeEmitsInstrs(t *testing.T) {
	prog := lowered(t, "int main(void) { return 1 + 2; }")
	if obj := GenerateCode(prog, nopTracer(), Features{}); len(obj.Instrs) == 0 {
		t.Fatal("back end emitted no instructions")
	}
}

func TestFeaturesHelpers(t *testing.T) {
	f := Features{}
	f.Add("x")
	f.Add("x")
	f.AddN("y", 5)
	if f["x"] != 2 || f["y"] != 5 {
		t.Errorf("feature counts wrong: %v", f)
	}
	if !f.Has("x") || f.Has("z") {
		t.Error("Has wrong")
	}
	names := FeatureNames(f)
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
}

func TestOptionsFlagString(t *testing.T) {
	o := Options{OptLevel: 3, DisabledPasses: []string{"loopvec"}}
	if got := o.FlagString(); got != "-O3 -fno-loopvec" {
		t.Errorf("FlagString = %q", got)
	}
}
