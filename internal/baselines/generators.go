package baselines

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/fuzz"
)

// Csmith is a generation-based baseline in the style of Csmith: random
// programs expanded from a grammar with careful avoidance of undefined
// behaviour. Its guardedness is also its ceiling — the generated shapes
// are regular and conservative, so on heavily-tested production compilers
// it saturates without crashing (the paper measured 0 crashes and notes
// the saturation-point finding from YARPGen's authors).
type Csmith struct {
	comp  *compilersim.Compiler
	rng   *rand.Rand
	stats *fuzz.Stats
	seq   int
}

// NewCsmith builds the Csmith-style generator baseline (seedless).
func NewCsmith(name string, comp *compilersim.Compiler, rng *rand.Rand) *Csmith {
	return &Csmith{comp: comp, rng: rng, stats: fuzz.NewStats(name)}
}

// Name returns the fuzzer name.
func (c *Csmith) Name() string { return c.stats.Name }

// Stats exposes accounting.
func (c *Csmith) Stats() *fuzz.Stats { return c.stats }

// Step generates one program and compiles it.
func (c *Csmith) Step() {
	c.seq++
	src := c.generate()
	res := c.comp.Compile(src, compilersim.DefaultOptions())
	c.stats.Record(src, "csmith", res)
}

// generate emits a guarded random program. Every operation is wrapped in
// safe_* style guards (here: modest operand ranges and checked divides),
// which keeps the structural variety low by construction.
func (c *Csmith) generate() string {
	var sb strings.Builder
	nGlobals := 2 + c.rng.Intn(3)
	for i := 0; i < nGlobals; i++ {
		fmt.Fprintf(&sb, "static int g_%d_%d = %d;\n", c.seq, i, c.rng.Intn(100))
	}
	nFuncs := 1 + c.rng.Intn(3)
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&sb, "static int func_%d_%d(int p0, int p1) {\n", c.seq, i)
		fmt.Fprintf(&sb, "    int l0 = p0;\n    int l1 = p1;\n")
		nStmts := 2 + c.rng.Intn(4)
		for s := 0; s < nStmts; s++ {
			op := []string{"+", "-", "*", "&", "|", "^"}[c.rng.Intn(6)]
			fmt.Fprintf(&sb, "    l%d = (l0 %s l1) %s g_%d_%d;\n",
				s%2, op, []string{"+", "^"}[c.rng.Intn(2)],
				c.seq, c.rng.Intn(nGlobals))
		}
		// Checked division in the Csmith safe_div style.
		fmt.Fprintf(&sb, "    if (l1 != 0) l0 = l0 / l1;\n")
		fmt.Fprintf(&sb, "    return l0 + l1;\n}\n")
	}
	fmt.Fprintf(&sb, "int main(void) {\n    int r = 0;\n")
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&sb, "    r += func_%d_%d(%d, %d);\n",
			c.seq, i, c.rng.Intn(50), c.rng.Intn(50)+1)
	}
	fmt.Fprintf(&sb, "    return r & 0xff;\n}\n")
	return sb.String()
}

// YARPGen is a generation-based baseline in the style of YARPGen v2: its
// generation policies target loop optimizations specifically, emitting
// counted loops over arrays that exercise the vectorizer and related
// passes — hence the occasional optimizer crash (the paper measured 2)
// and near-zero front-end findings.
type YARPGen struct {
	comp  *compilersim.Compiler
	rng   *rand.Rand
	stats *fuzz.Stats
	seq   int
}

// NewYARPGen builds the YARPGen-style generator baseline (seedless).
func NewYARPGen(name string, comp *compilersim.Compiler, rng *rand.Rand) *YARPGen {
	return &YARPGen{comp: comp, rng: rng, stats: fuzz.NewStats(name)}
}

// Name returns the fuzzer name.
func (y *YARPGen) Name() string { return y.stats.Name }

// Stats exposes accounting.
func (y *YARPGen) Stats() *fuzz.Stats { return y.stats }

// Step generates one loop-heavy program and compiles it.
func (y *YARPGen) Step() {
	y.seq++
	src := y.generate()
	res := y.comp.Compile(src, compilersim.DefaultOptions())
	y.stats.Record(src, "yarpgen", res)
}

func (y *YARPGen) generate() string {
	var sb strings.Builder
	n := 8 << uint(y.rng.Intn(3)) // 8, 16, 32
	arrays := 2 + y.rng.Intn(2)
	for i := 0; i < arrays; i++ {
		fmt.Fprintf(&sb, "int a_%d_%d[%d];\n", y.seq, i, n)
	}
	fmt.Fprintf(&sb, "void kernel_%d(int scale) {\n    int i;\n", y.seq)
	nLoops := 1 + y.rng.Intn(2)
	if y.rng.Intn(80) == 0 {
		// Rare stress shape: a long loop nest hammering the vectorizer.
		nLoops = 5 + y.rng.Intn(3)
	}
	for l := 0; l < nLoops; l++ {
		fmt.Fprintf(&sb, "    for (i = 0; i < %d; i++) {\n", n)
		nOps := 2 + y.rng.Intn(2)
		for o := 0; o < nOps; o++ {
			dst := y.rng.Intn(arrays)
			src1 := y.rng.Intn(arrays)
			src2 := y.rng.Intn(arrays)
			op := []string{"+", "*", "-"}[y.rng.Intn(3)]
			fmt.Fprintf(&sb, "        a_%d_%d[i] = a_%d_%d[i] %s a_%d_%d[i] %s scale;\n",
				y.seq, dst, y.seq, src1, op, y.seq, src2,
				[]string{"+", "*"}[y.rng.Intn(2)])
		}
		if y.rng.Intn(3) == 0 {
			// Constant-heavy statement for the folding passes.
			fmt.Fprintf(&sb, "        a_%d_0[i] += %d * %d + %d;\n",
				y.seq, y.rng.Intn(9)+1, y.rng.Intn(9)+1, y.rng.Intn(50))
		}
		fmt.Fprintf(&sb, "    }\n")
	}
	fmt.Fprintf(&sb, "}\n")
	fmt.Fprintf(&sb, "int main(void) {\n")
	fmt.Fprintf(&sb, "    kernel_%d(%d);\n", y.seq, y.rng.Intn(9)+1)
	fmt.Fprintf(&sb, "    return a_%d_0[0] & 0xff;\n}\n", y.seq)
	return sb.String()
}
