// Package compilersim implements a complete simulated C compiler used as
// the fuzzing target standing in for GCC and Clang: a front-end (reusing
// internal/cast), an IR generator, an optimizer pipeline, and a back-end,
// all branch-coverage instrumented, plus a per-profile corpus of injected
// defects whose trigger structure reproduces where real compiler bugs
// live (see DESIGN.md).
package compilersim

import (
	"math"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/compilersim/ir"
)

// Features accumulates structural facts about the program being compiled;
// the injected-defect predicates match against it.
type Features map[string]int

// Add increments a feature counter.
func (f Features) Add(key string) { f[key]++ }

// AddN increments a feature counter by n.
func (f Features) AddN(key string, n int) { f[key] += n }

// Has reports whether a feature was observed.
func (f Features) Has(key string) bool { return f[key] > 0 }

// irgen lowers a checked translation unit into IR. It is a
// reset-and-reuse generator: one irgen per compile context, recycled
// across compilations. Everything it hands out (the Program, its Funcs,
// Blocks, instruction operand slices, global data bytes) is owned by the
// generator and valid only until the next generate call — the same
// borrow discipline as cast.Arena.
type irgen struct {
	tu    *cast.TranslationUnit // the unit being lowered; its node table serves the label scan
	prog  ir.Program
	fn    *ir.Func
	cur   *ir.Block
	trace *cover.Tracer
	feats Features

	globals map[string]int
	funcs   map[string]int
	locals  map[cast.Decl]int
	params  map[cast.Decl]int
	labels  map[string]*ir.Block

	breakStack    []*ir.Block
	continueStack []*ir.Block

	// Recycled object pools. funcN/blockN count how many entries of the
	// pool are live in the current program; reset rewinds the counters
	// and later generations overwrite in place.
	funcPool  []*ir.Func
	funcN     int
	blockPool []*ir.Block
	blockN    int

	// dataBuf backs Global.Data (string literal bytes, constant
	// initializers). vals/cases back Instr.Args and Instr.Cases.
	dataBuf []byte
	vals    bump[ir.Value]
	cases   bump[int64]

	// Scratch stacks (mark/cut discipline, so nested constructs compose).
	valBuf  []ir.Value
	armBuf  []swArm
	stmtBuf []cast.Stmt
	succBuf []*ir.Block
	caseBuf []int64
}

// swArm is one case/default arm of a switch; its statements are the
// contiguous stmtBuf range [s0, s1).
type swArm struct {
	value  int64
	isCase bool
	block  *ir.Block
	s0, s1 int
}

// bump hands out exact-size slices carved from one growing backing
// array. When the backing fills, it is abandoned to the issued slices
// and a larger one is allocated, so steady-state reuse stops allocating.
type bump[T any] struct{ buf []T }

func (bp *bump[T]) save(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(bp.buf)-len(bp.buf) < n {
		sz := 2 * (len(bp.buf) + n)
		if sz < 64 {
			sz = 64
		}
		bp.buf = make([]T, 0, sz)
	}
	off := len(bp.buf)
	bp.buf = append(bp.buf, src...)
	return bp.buf[off : off+n : off+n]
}

func (bp *bump[T]) reset() { bp.buf = bp.buf[:0] }

// initMaps allocates the generator's lookup maps (idempotent).
func (g *irgen) initMaps() {
	if g.globals == nil {
		g.globals = map[string]int{}
		g.funcs = map[string]int{}
		g.locals = map[cast.Decl]int{}
		g.params = map[cast.Decl]int{}
		g.labels = map[string]*ir.Block{}
	}
}

// GenerateIR lowers tu into an IR program. The tracer records IR-gen
// coverage; feats accumulates bug-predicate features. The returned
// program is freshly allocated and owned by the caller (per-stream
// contexts use irgen.generate directly and borrow instead).
func GenerateIR(tu *cast.TranslationUnit, trace *cover.Tracer, feats Features) *ir.Program {
	g := &irgen{trace: trace, feats: feats}
	g.initMaps()
	return g.generate(tu)
}

// generate resets the generator and lowers tu, returning the recycled
// program (borrowed: valid until the next generate on this irgen).
func (g *irgen) generate(tu *cast.TranslationUnit) *ir.Program {
	g.prog.Funcs = g.prog.Funcs[:0]
	g.prog.Globals = g.prog.Globals[:0]
	g.funcN, g.blockN = 0, 0
	g.dataBuf = g.dataBuf[:0]
	g.vals.reset()
	g.cases.reset()
	g.valBuf = g.valBuf[:0]
	g.armBuf = g.armBuf[:0]
	g.stmtBuf = g.stmtBuf[:0]
	g.succBuf = g.succBuf[:0]
	g.caseBuf = g.caseBuf[:0]
	g.breakStack = g.breakStack[:0]
	g.continueStack = g.continueStack[:0]
	clear(g.globals)
	clear(g.funcs)
	g.tu = tu

	// First pass: globals.
	for _, d := range tu.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			g.declareGlobal(vd)
		}
	}
	// Second pass: functions.
	for _, d := range tu.Decls {
		if fd, ok := d.(*cast.FunctionDecl); ok && fd.IsDefinition() {
			g.genFunction(fd)
		}
	}
	g.tu = nil
	return &g.prog
}

// newFunc returns a recycled function object appended to the program.
func (g *irgen) newFunc(name string, nparams int, returnsValue bool) *ir.Func {
	var fn *ir.Func
	if g.funcN < len(g.funcPool) {
		fn = g.funcPool[g.funcN]
		blocks := fn.Blocks[:0]
		*fn = ir.Func{Name: name, NParams: nparams, ReturnsValue: returnsValue,
			Blocks: blocks}
	} else {
		fn = &ir.Func{Name: name, NParams: nparams, ReturnsValue: returnsValue}
		g.funcPool = append(g.funcPool, fn)
	}
	g.funcN++
	return fn
}

// newBlock returns a recycled block appended to the current function
// (same shape as ir.Func.NewBlock, minus the per-block allocation).
func (g *irgen) newBlock() *ir.Block {
	var b *ir.Block
	if g.blockN < len(g.blockPool) {
		b = g.blockPool[g.blockN]
		b.Instrs = b.Instrs[:0]
		b.Succs = b.Succs[:0]
		b.Reachable = false
	} else {
		b = &ir.Block{}
		g.blockPool = append(g.blockPool, b)
	}
	g.blockN++
	b.ID = len(g.fn.Blocks)
	g.fn.Blocks = append(g.fn.Blocks, b)
	return b
}

// internBytes copies s (plus an optional NUL) into the generator's data
// arena, for Global.Data.
func (g *irgen) internBytes(s string, addNul bool) []byte {
	n := len(s)
	if addNul {
		n++
	}
	if cap(g.dataBuf)-len(g.dataBuf) < n {
		sz := 2 * (len(g.dataBuf) + n)
		if sz < 256 {
			sz = 256
		}
		g.dataBuf = make([]byte, 0, sz)
	}
	off := len(g.dataBuf)
	g.dataBuf = append(g.dataBuf, s...)
	if addNul {
		g.dataBuf = append(g.dataBuf, 0)
	}
	return g.dataBuf[off : off+n : off+n]
}

// constBytes stores v's 8 little-endian bytes in the data arena.
func (g *irgen) constBytes(v int64) []byte {
	if cap(g.dataBuf)-len(g.dataBuf) < 8 {
		sz := 2 * (len(g.dataBuf) + 8)
		if sz < 256 {
			sz = 256
		}
		g.dataBuf = make([]byte, 0, sz)
	}
	off := len(g.dataBuf)
	for i := 0; i < 8; i++ {
		g.dataBuf = append(g.dataBuf, byte(v>>(8*i)))
	}
	return g.dataBuf[off : off+8 : off+8]
}

func (g *irgen) declareGlobal(vd *cast.VarDecl) {
	if _, dup := g.globals[vd.Name]; dup {
		return
	}
	size := vd.Ty.Size()
	if size < 0 {
		size = 8
	}
	g.globals[vd.Name] = len(g.prog.Globals)
	glob := ir.Global{
		Name:     vd.Name,
		Size:     size,
		Const:    vd.Ty.Q&cast.QualConst != 0,
		Volatile: vd.Ty.Q&cast.QualVolatile != 0,
	}
	// Materialize constant initial values so execution sees them.
	if vd.Init != nil {
		if v, ok := cast.ConstIntValue(vd.Init); ok {
			glob.Data = g.constBytes(v)
		} else if sl, ok := vd.Init.(*cast.StringLiteral); ok {
			glob.Data = g.internBytes(sl.Value, true)
			glob.NulTerminated = true
		}
	}
	g.prog.Globals = append(g.prog.Globals, glob)
	g.trace.HitN("global", int(size%64))
	if vd.Ty.Q&cast.QualVolatile != 0 {
		g.feats.Add("global.volatile")
	}
	if vd.Ty.IsComplex() {
		g.feats.Add("global.complex")
	}
}

// internString registers a string literal as an anonymous global.
func (g *irgen) internString(s *cast.StringLiteral) ir.Value {
	idx := len(g.prog.Globals)
	name := strGlobalName(idx)
	data := g.internBytes(s.Value, true)
	g.prog.Globals = append(g.prog.Globals, ir.Global{
		Name: name, Size: int64(len(s.Value)) + 1, Const: true,
		NulTerminated: true, Data: data,
	})
	t := g.fn.NewTemp()
	g.emit(ir.Instr{Op: ir.OpAddr, Dst: t, A: ir.Value{Kind: ir.VGlobal, ID: int64(idx)}})
	return t
}

func (g *irgen) genFunction(fd *cast.FunctionDecl) {
	g.fn = g.newFunc(fd.Name, len(fd.Params), !fd.Ret.IsVoid())
	g.funcs[fd.Name] = len(g.prog.Funcs)
	g.prog.Funcs = append(g.prog.Funcs, g.fn)
	clear(g.locals)
	clear(g.params)
	clear(g.labels)
	for i, pv := range fd.Params {
		g.params[pv] = i
	}
	g.cur = g.newBlock()
	g.trace.HitN("func.params", len(fd.Params))
	g.feats.AddN("fn.count", 1)
	if fd.Ret.IsVoid() {
		g.feats.Add("fn.void")
	}
	// Collect labels up front so forward gotos resolve; also classify the
	// Ret2V shape (void function whose labels have no trailing
	// computation and which contains no return statements) that Clang
	// issue #63762 hinges on.
	emptyLabels, returns, gotos := 0, 0, 0
	for _, n := range g.tu.Subtree(fd.Body) {
		switch x := n.(type) {
		case *cast.LabelStmt:
			if _, dup := g.labels[x.Name]; !dup {
				g.labels[x.Name] = g.newBlock()
			}
			if x.Body == nil {
				emptyLabels++
			} else if _, isNull := x.Body.(*cast.NullStmt); isNull {
				emptyLabels++
			}
		case *cast.ReturnStmt:
			returns++
		case *cast.GotoStmt:
			gotos++
		}
	}
	if fd.Ret.IsVoid() && emptyLabels > 0 && returns == 0 && gotos > 0 {
		g.feats.Add("fn.void.labels.noreturn")
	}
	g.genStmt(fd.Body)
	// Implicit return.
	if g.cur.Terminator() == nil {
		g.emit(ir.Instr{Op: ir.OpRet})
	}
	g.sealBlocks()
}

// sealBlocks gives every non-terminated block an explicit terminator (a
// fallthrough br) so downstream passes can rely on block shape.
func (g *irgen) sealBlocks() {
	for i, b := range g.fn.Blocks {
		if b.Terminator() == nil {
			if i+1 < len(g.fn.Blocks) {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpBr})
				b.Succs = append(b.Succs[:0], i+1)
			} else {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpRet})
			}
		}
	}
}

func (g *irgen) emit(in ir.Instr) {
	g.cur.Instrs = append(g.cur.Instrs, in)
	g.trace.HitNHash(emitSiteHash[in.Op], len(g.cur.Instrs)%17)
}

func (g *irgen) setSuccs(b *ir.Block, succs ...*ir.Block) {
	b.Succs = b.Succs[:0]
	for _, s := range succs {
		b.Succs = append(b.Succs, s.ID)
	}
}

// br terminates the current block with a jump to target and switches to a
// new current block.
func (g *irgen) br(target *ir.Block) {
	if g.cur.Terminator() == nil {
		g.cur.Instrs = append(g.cur.Instrs, ir.Instr{Op: ir.OpBr})
		g.setSuccs(g.cur, target)
	}
}

func (g *irgen) condBr(cond ir.Value, t, f *ir.Block) {
	g.cur.Instrs = append(g.cur.Instrs, ir.Instr{Op: ir.OpCondBr, A: cond})
	g.setSuccs(g.cur, t, f)
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

func (g *irgen) genStmt(s cast.Stmt) {
	if s == nil {
		return
	}
	// Edge sites scale with position so structurally larger programs
	// keep minting new edges — matching how deeper inputs reach more of
	// a real compiler.
	g.trace.HitNHash(stmtSiteHash[s.Kind()], len(g.fn.Blocks)%31)
	switch x := s.(type) {
	case *cast.CompoundStmt:
		for _, inner := range x.Stmts {
			g.genStmt(inner)
		}
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if vd, ok := d.(*cast.VarDecl); ok {
				g.genLocalDecl(vd)
			}
		}
	case *cast.ExprStmt:
		g.genExpr(x.X)
	case *cast.NullStmt:
	case *cast.IfStmt:
		g.genIf(x)
	case *cast.WhileStmt:
		g.genWhile(x)
	case *cast.DoStmt:
		g.genDo(x)
	case *cast.ForStmt:
		g.genFor(x)
	case *cast.SwitchStmt:
		g.genSwitch(x)
	case *cast.BreakStmt:
		if n := len(g.breakStack); n > 0 {
			g.br(g.breakStack[n-1])
			g.cur = g.newBlock()
		}
	case *cast.ContinueStmt:
		if n := len(g.continueStack); n > 0 {
			g.br(g.continueStack[n-1])
			g.cur = g.newBlock()
		}
	case *cast.ReturnStmt:
		if x.Value != nil {
			v := g.genExpr(x.Value)
			g.cur.Instrs = append(g.cur.Instrs, ir.Instr{Op: ir.OpRet, A: v})
		} else {
			g.cur.Instrs = append(g.cur.Instrs, ir.Instr{Op: ir.OpRet})
		}
		g.feats.Add("stmt.return")
		g.cur = g.newBlock()
	case *cast.GotoStmt:
		g.feats.Add("stmt.goto")
		if target, ok := g.labels[x.Label]; ok {
			g.br(target)
		}
		g.cur = g.newBlock()
	case *cast.LabelStmt:
		g.feats.Add("stmt.label")
		target := g.labels[x.Name]
		g.br(target)
		g.cur = target
		if _, isNull := x.Body.(*cast.NullStmt); x.Body == nil || isNull {
			g.feats.Add("stmt.label.empty")
		}
		if x.Body != nil {
			g.genStmt(x.Body)
		}
	case *cast.CaseStmt, *cast.DefaultStmt:
		// Reached only outside a recognized switch body; treat the label
		// body as plain code.
		if cs, ok := x.(*cast.CaseStmt); ok && cs.Body != nil {
			g.genStmt(cs.Body)
		}
		if ds, ok := x.(*cast.DefaultStmt); ok && ds.Body != nil {
			g.genStmt(ds.Body)
		}
	}
}

func (g *irgen) genLocalDecl(vd *cast.VarDecl) {
	slot := g.fn.Locals
	g.fn.Locals++
	g.locals[vd] = slot
	g.trace.HitN("local", slot%13)
	if vd.Ty.IsArray() {
		g.feats.Add("local.array")
	}
	if vd.Ty.IsRecord() {
		g.feats.Add("local.struct")
	}
	if vd.Init != nil {
		v := g.genExpr(vd.Init)
		if v.Kind == ir.VConst && v.ID == 0 {
			g.feats.Add("init.zerostore")
		}
		g.emit(ir.Instr{Op: ir.OpStore,
			A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}, B: ir.Const(0), C: v})
	}
}

func (g *irgen) genIf(x *cast.IfStmt) {
	cond := g.genExpr(x.Cond)
	thenB := g.newBlock()
	elseB := g.newBlock()
	exitB := g.newBlock()
	g.condBr(cond, thenB, elseB)
	g.cur = thenB
	g.genStmt(x.Then)
	g.br(exitB)
	g.cur = elseB
	if x.Else != nil {
		g.feats.Add("stmt.ifelse")
		g.genStmt(x.Else)
	}
	g.br(exitB)
	g.cur = exitB
}

func (g *irgen) genWhile(x *cast.WhileStmt) {
	head := g.newBlock()
	body := g.newBlock()
	exit := g.newBlock()
	g.br(head)
	g.cur = head
	cond := g.genExpr(x.Cond)
	g.condBr(cond, body, exit)
	g.pushLoop(exit, head)
	g.cur = body
	g.genStmt(x.Body)
	g.br(head)
	g.popLoop()
	g.cur = exit
	g.feats.Add("loop.while")
}

func (g *irgen) genDo(x *cast.DoStmt) {
	body := g.newBlock()
	head := g.newBlock()
	exit := g.newBlock()
	g.br(body)
	g.pushLoop(exit, head)
	g.cur = body
	g.genStmt(x.Body)
	g.br(head)
	g.cur = head
	cond := g.genExpr(x.Cond)
	g.condBr(cond, body, exit)
	g.popLoop()
	g.cur = exit
	g.feats.Add("loop.do")
}

func (g *irgen) genFor(x *cast.ForStmt) {
	if x.Init != nil {
		g.genStmt(x.Init)
	}
	head := g.newBlock()
	body := g.newBlock()
	post := g.newBlock()
	exit := g.newBlock()
	g.br(head)
	g.cur = head
	if x.Cond != nil {
		cond := g.genExpr(x.Cond)
		g.condBr(cond, body, exit)
	} else {
		g.br(body)
		g.feats.Add("loop.infinite")
	}
	g.pushLoop(exit, post)
	g.cur = body
	g.genStmt(x.Body)
	g.br(post)
	g.cur = post
	if x.Post != nil {
		g.genExpr(x.Post)
	}
	g.br(head)
	g.popLoop()
	g.cur = exit
	g.feats.Add("loop.for")
}

func (g *irgen) genSwitch(x *cast.SwitchStmt) {
	cond := g.genExpr(x.Cond)
	exit := g.newBlock()
	body, ok := x.Body.(*cast.CompoundStmt)
	if !ok {
		// Degenerate switch; evaluate and skip.
		g.br(exit)
		g.cur = exit
		return
	}
	// Map each case/default label to a block; code between labels flows
	// into the previous label's chain (fallthrough preserved). Arms and
	// their statement lists live on shared scratch stacks with mark/cut
	// discipline (statements only ever append to the newest arm, so each
	// arm's statements form a contiguous stmtBuf run).
	armMark := len(g.armBuf)
	stmtMark := len(g.stmtBuf)
	var defaultBlock *ir.Block
	for _, s := range body.Stmts {
		switch lbl := s.(type) {
		case *cast.CaseStmt:
			v, _ := cast.ConstIntValue(lbl.Value)
			a := swArm{value: v, isCase: true, block: g.newBlock(),
				s0: len(g.stmtBuf), s1: len(g.stmtBuf)}
			if lbl.Body != nil {
				g.stmtBuf = append(g.stmtBuf, lbl.Body)
				a.s1++
			}
			g.armBuf = append(g.armBuf, a)
		case *cast.DefaultStmt:
			b := g.newBlock()
			defaultBlock = b
			a := swArm{isCase: false, block: b,
				s0: len(g.stmtBuf), s1: len(g.stmtBuf)}
			if lbl.Body != nil {
				g.stmtBuf = append(g.stmtBuf, lbl.Body)
				a.s1++
			}
			g.armBuf = append(g.armBuf, a)
		default:
			if len(g.armBuf) > armMark {
				g.stmtBuf = append(g.stmtBuf, s)
				g.armBuf[len(g.armBuf)-1].s1++
			}
		}
	}
	arms := g.armBuf[armMark:]
	g.feats.AddN("switch.arms", len(arms))
	g.trace.HitN("switch", len(arms)%23)
	// Emit the dispatcher. Case values collect on a scratch stack and the
	// final slice is carved from the arena.
	sw := ir.Instr{Op: ir.OpSwitch, A: cond}
	succMark := len(g.succBuf)
	caseMark := len(g.caseBuf)
	for i := range arms {
		if arms[i].isCase {
			g.caseBuf = append(g.caseBuf, arms[i].value)
			g.succBuf = append(g.succBuf, arms[i].block)
		}
	}
	sw.Cases = g.cases.save(g.caseBuf[caseMark:])
	g.caseBuf = g.caseBuf[:caseMark]
	if defaultBlock != nil {
		g.succBuf = append(g.succBuf, defaultBlock)
	} else {
		g.succBuf = append(g.succBuf, exit)
	}
	g.cur.Instrs = append(g.cur.Instrs, sw)
	g.setSuccs(g.cur, g.succBuf[succMark:]...)
	g.succBuf = g.succBuf[:succMark]
	// Emit arm bodies with fallthrough. Nested switches push past our
	// marks and truncate back, so index-based ranges stay valid.
	g.pushLoop(exit, nil)
	for i := range arms {
		a := arms[i]
		g.cur = a.block
		for _, s := range g.stmtBuf[a.s0:a.s1] {
			g.genStmt(s)
		}
		if i+1 < len(arms) {
			g.br(arms[i+1].block)
		} else {
			g.br(exit)
		}
	}
	g.popLoop()
	g.cur = exit
	g.armBuf = g.armBuf[:armMark]
	g.stmtBuf = g.stmtBuf[:stmtMark]
}

func (g *irgen) pushLoop(brk, cont *ir.Block) {
	g.breakStack = append(g.breakStack, brk)
	if cont != nil {
		g.continueStack = append(g.continueStack, cont)
	} else {
		// switch: continue binds to the enclosing loop; push nothing by
		// duplicating the previous target when present.
		if n := len(g.continueStack); n > 0 {
			g.continueStack = append(g.continueStack, g.continueStack[n-1])
		} else {
			g.continueStack = append(g.continueStack, nil)
		}
	}
}

func (g *irgen) popLoop() {
	g.breakStack = g.breakStack[:len(g.breakStack)-1]
	g.continueStack = g.continueStack[:len(g.continueStack)-1]
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

var binOpToIR = map[cast.BinOp]ir.Op{
	cast.BinAdd: ir.OpAdd, cast.BinSub: ir.OpSub, cast.BinMul: ir.OpMul,
	cast.BinDiv: ir.OpDiv, cast.BinRem: ir.OpRem, cast.BinShl: ir.OpShl,
	cast.BinShr: ir.OpShr, cast.BinAnd: ir.OpAnd, cast.BinOr: ir.OpOr,
	cast.BinXor: ir.OpXor, cast.BinEQ: ir.OpCmpEQ, cast.BinNE: ir.OpCmpNE,
	cast.BinLT: ir.OpCmpLT, cast.BinLE: ir.OpCmpLE, cast.BinGT: ir.OpCmpGT,
	cast.BinGE: ir.OpCmpGE,
}

func (g *irgen) genExpr(e cast.Expr) ir.Value {
	if e == nil {
		return ir.None
	}
	g.trace.HitNHash(exprSiteHash[e.Kind()], g.fn.NextTemp%29)
	switch x := e.(type) {
	case *cast.IntegerLiteral:
		return ir.Const(x.Value)
	case *cast.CharLiteral:
		return ir.Const(int64(x.Value))
	case *cast.FloatingLiteral:
		g.feats.Add("expr.float")
		return ir.Value{Kind: ir.VFConst, ID: int64(math.Float64bits(x.Value))}
	case *cast.StringLiteral:
		return g.internString(x)
	case *cast.DeclRefExpr:
		return g.genLoad(x)
	case *cast.ParenExpr:
		return g.genExpr(x.X)
	case *cast.BinaryOperator:
		return g.genBinary(x)
	case *cast.UnaryOperator:
		return g.genUnary(x)
	case *cast.CallExpr:
		return g.genCall(x)
	case *cast.ArraySubscriptExpr:
		addr, off := g.genAddressOf(x)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: t, A: addr, B: off,
			Width: widthOf(x.Type())})
		return t
	case *cast.MemberExpr:
		g.feats.Add("expr.member")
		addr, off := g.genAddressOf(x)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: t, A: addr, B: off,
			Width: widthOf(x.Type())})
		return t
	case *cast.CastExpr:
		g.feats.Add("expr.cast")
		if x.To.IsRecord() {
			g.feats.Add("expr.cast.struct")
		}
		if x.To.IsComplex() {
			g.feats.Add("expr.cast.complex")
		}
		v := g.genExpr(x.X)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpConvert, Dst: t, A: v,
			Float: x.To.IsFloating() || x.To.IsComplex()})
		return t
	case *cast.ConditionalExpr:
		return g.genConditional(x)
	case *cast.SizeofExpr:
		sz := int64(8)
		if x.X != nil && !x.X.Type().IsNil() {
			if s := x.X.Type().Size(); s > 0 {
				sz = s
			}
		} else if !x.OfType.IsNil() {
			if s := x.OfType.Size(); s > 0 {
				sz = s
			}
		}
		return ir.Const(sz)
	case *cast.InitListExpr:
		g.feats.Add("expr.initlist")
		var last ir.Value = ir.Const(0)
		for _, in := range x.Inits {
			last = g.genExpr(in)
		}
		return last
	case *cast.CompoundLiteralExpr:
		g.feats.Add("expr.compoundlit")
		if k, ok := x.To.Basic(); ok && k != cast.Void && len(x.Init.Inits) > 0 {
			if _, isList := x.Init.Inits[0].(*cast.InitListExpr); isList {
				// "(int){{}, 0}" — scalar compound literal with braced
				// init; Clang #69213's shape.
				g.feats.Add("expr.compoundlit.scalarbrace")
			}
		}
		return g.genExpr(x.Init)
	case *cast.CommaExpr:
		g.genExpr(x.LHS)
		return g.genExpr(x.RHS)
	}
	return ir.None
}

// genLoad reads a named variable.
func (g *irgen) genLoad(x *cast.DeclRefExpr) ir.Value {
	switch d := x.Ref.(type) {
	case *cast.EnumConstantDecl:
		return ir.Const(d.Num)
	case *cast.ParmVarDecl:
		if idx, ok := g.params[d]; ok {
			return ir.Value{Kind: ir.VParam, ID: int64(idx)}
		}
	case *cast.VarDecl:
		if slot, ok := g.locals[d]; ok {
			if d.Ty.IsArray() {
				// Arrays decay: yield the slot address.
				t := g.fn.NewTemp()
				g.emit(ir.Instr{Op: ir.OpAddr, Dst: t,
					A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}})
				return t
			}
			t := g.fn.NewTemp()
			g.emit(ir.Instr{Op: ir.OpLoad, Dst: t,
				A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}, B: ir.Const(0)})
			return t
		}
		if gi, ok := g.globals[d.Name]; ok {
			if d.Ty.IsArray() {
				t := g.fn.NewTemp()
				g.emit(ir.Instr{Op: ir.OpAddr, Dst: t,
					A: ir.Value{Kind: ir.VGlobal, ID: int64(gi)}})
				return t
			}
			t := g.fn.NewTemp()
			g.emit(ir.Instr{Op: ir.OpLoad, Dst: t,
				A: ir.Value{Kind: ir.VGlobal, ID: int64(gi)}, B: ir.Const(0)})
			return t
		}
	case *cast.FunctionDecl:
		if fi, ok := g.funcs[d.Name]; ok {
			return ir.Value{Kind: ir.VFunc, ID: int64(fi)}
		}
		return ir.Value{Kind: ir.VFunc, ID: -1}
	}
	// Unresolved (e.g. shadowed redeclaration): treat as fresh temp.
	return g.fn.NewTemp()
}

// genAddressOf computes (base, offset) for an lvalue expression.
func (g *irgen) genAddressOf(e cast.Expr) (base, off ir.Value) {
	switch x := e.(type) {
	case *cast.DeclRefExpr:
		switch d := x.Ref.(type) {
		case *cast.VarDecl:
			if slot, ok := g.locals[d]; ok {
				return ir.Value{Kind: ir.VLocal, ID: int64(slot)}, ir.Const(0)
			}
			if gi, ok := g.globals[d.Name]; ok {
				return ir.Value{Kind: ir.VGlobal, ID: int64(gi)}, ir.Const(0)
			}
		case *cast.ParmVarDecl:
			// Writable parameter: model as its own slot keyed by param.
			return ir.Value{Kind: ir.VParam, ID: int64(g.params[d])}, ir.Const(0)
		}
		return g.fn.NewTemp(), ir.Const(0)
	case *cast.ParenExpr:
		return g.genAddressOf(x.X)
	case *cast.ArraySubscriptExpr:
		baseV := g.genExpr(x.Base)
		idx := g.genExpr(x.Index)
		esz := int64(4)
		if pt, ok := x.Base.Type().Decay().PointeeType(); ok && pt.Size() > 0 {
			esz = pt.Size()
		}
		scaled := g.fn.NewTemp()
		// Power-of-two element sizes use scaled addressing (a shift)
		// directly, as a real code generator would — routing them through
		// OpMul would let the optimizer's strength reduction fire on
		// every subscript, drowning the source-level signal.
		if esz > 0 && esz&(esz-1) == 0 {
			sh := int64(0)
			for v := esz; v > 1; v >>= 1 {
				sh++
			}
			g.emit(ir.Instr{Op: ir.OpShl, Dst: scaled, A: idx, B: ir.Const(sh)})
		} else {
			g.emit(ir.Instr{Op: ir.OpMul, Dst: scaled, A: idx, B: ir.Const(esz)})
		}
		return baseV, scaled
	case *cast.MemberExpr:
		var fieldOff int64
		if x.FieldDecl != nil {
			fieldOff = g.fieldOffset(x)
		}
		if x.IsArrow {
			b := g.genExpr(x.Base)
			return b, ir.Const(fieldOff)
		}
		b, o := g.genAddressOf(x.Base)
		if o.Kind == ir.VConst {
			return b, ir.Const(o.ID + fieldOff)
		}
		sum := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpAdd, Dst: sum, A: o, B: ir.Const(fieldOff)})
		return b, sum
	case *cast.UnaryOperator:
		if x.Op == cast.UnDeref {
			v := g.genExpr(x.X)
			return v, ir.Const(0)
		}
	case *cast.CastExpr:
		return g.genAddressOf(x.X)
	}
	// Fall back: evaluate as rvalue and use as an address.
	return g.genExpr(e), ir.Const(0)
}

func (g *irgen) fieldOffset(me *cast.MemberExpr) int64 {
	target := me.Base.Type()
	if me.IsArrow {
		if pt, ok := target.Decay().PointeeType(); ok {
			target = pt
		}
	}
	rt, ok := target.Canonical().T.(*cast.RecordType)
	if !ok {
		return 0
	}
	var off int64
	for _, f := range rt.Decl.Fields {
		sz := f.Ty.Size()
		if sz <= 0 {
			sz = 8
		}
		al := sz
		if al > 8 {
			al = 8
		}
		off = (off + al - 1) / al * al
		if f.Name == me.Field {
			return off
		}
		if !rt.Decl.IsUnion {
			off += sz
		} else {
			off = 0
		}
	}
	return 0
}

func (g *irgen) genBinary(x *cast.BinaryOperator) ir.Value {
	if x.Op.IsAssignment() {
		return g.genAssign(x)
	}
	if x.Op.IsLogical() {
		return g.genLogical(x)
	}
	a := g.genExpr(x.LHS)
	b := g.genExpr(x.RHS)
	op := binOpToIR[x.Op]
	t := g.fn.NewTemp()
	isFloat := x.LHS.Type().IsFloating() || x.RHS.Type().IsFloating() ||
		x.LHS.Type().IsComplex() || x.RHS.Type().IsComplex()
	if isFloat {
		g.feats.Add("expr.floatarith")
	}
	if x.Op == cast.BinDiv || x.Op == cast.BinRem {
		g.feats.Add("expr.div")
	}
	g.emit(ir.Instr{Op: op, Dst: t, A: a, B: b, Float: isFloat})
	return t
}

// compoundToIR maps compound-assignment operators to their underlying
// arithmetic op (package-level so genAssign does not rebuild it).
var compoundToIR = map[cast.BinOp]ir.Op{
	cast.BinAddAssign: ir.OpAdd, cast.BinSubAssign: ir.OpSub,
	cast.BinMulAssign: ir.OpMul, cast.BinDivAssign: ir.OpDiv,
	cast.BinRemAssign: ir.OpRem, cast.BinShlAssign: ir.OpShl,
	cast.BinShrAssign: ir.OpShr, cast.BinAndAssign: ir.OpAnd,
	cast.BinOrAssign: ir.OpOr, cast.BinXorAssign: ir.OpXor,
}

func (g *irgen) genAssign(x *cast.BinaryOperator) ir.Value {
	base, off := g.genAddressOf(x.LHS)
	w := widthOf(x.LHS.Type())
	var val ir.Value
	if x.Op == cast.BinAssign {
		val = g.genExpr(x.RHS)
	} else {
		// Compound: load, op, store.
		cur := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: cur, A: base, B: off, Width: w})
		rhs := g.genExpr(x.RHS)
		t := g.fn.NewTemp()
		under := compoundToIR[x.Op]
		g.emit(ir.Instr{Op: under, Dst: t, A: cur, B: rhs,
			Float: x.LHS.Type().IsFloating()})
		val = t
	}
	g.emit(ir.Instr{Op: ir.OpStore, A: base, B: off, C: val, Width: w})
	return val
}

func (g *irgen) genLogical(x *cast.BinaryOperator) ir.Value {
	// Short-circuit lowering with control flow.
	g.feats.Add("expr.logical")
	a := g.genExpr(x.LHS)
	rhsB := g.newBlock()
	exitB := g.newBlock()
	t := g.fn.NewTemp()
	// Initialize result with lhs-derived value.
	g.emit(ir.Instr{Op: ir.OpCmpNE, Dst: t, A: a, B: ir.Const(0)})
	if x.Op == cast.BinLAnd {
		g.condBr(t, rhsB, exitB)
	} else {
		g.condBr(t, exitB, rhsB)
	}
	g.cur = rhsB
	b := g.genExpr(x.RHS)
	g.emit(ir.Instr{Op: ir.OpCmpNE, Dst: t, A: b, B: ir.Const(0)})
	g.br(exitB)
	g.cur = exitB
	return t
}

func (g *irgen) genUnary(x *cast.UnaryOperator) ir.Value {
	switch x.Op {
	case cast.UnPlus:
		return g.genExpr(x.X)
	case cast.UnMinus:
		v := g.genExpr(x.X)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpNeg, Dst: t, A: v, Float: x.X.Type().IsFloating()})
		return t
	case cast.UnNot:
		v := g.genExpr(x.X)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpNot, Dst: t, A: v})
		return t
	case cast.UnLNot:
		v := g.genExpr(x.X)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpLNot, Dst: t, A: v})
		return t
	case cast.UnDeref:
		g.feats.Add("expr.deref")
		v := g.genExpr(x.X)
		t := g.fn.NewTemp()
		w := int8(8)
		if pt, ok := x.X.Type().Decay().PointeeType(); ok {
			w = widthOf(pt)
		}
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: t, A: v, B: ir.Const(0), Width: w})
		return t
	case cast.UnAddr:
		g.feats.Add("expr.addrof")
		if x.X.Type().IsComplex() {
			g.feats.Add("expr.addrof.complex")
		}
		base, off := g.genAddressOf(x.X)
		t := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: t, A: base, B: off})
		return t
	case cast.UnPreInc, cast.UnPreDec, cast.UnPostInc, cast.UnPostDec:
		base, off := g.genAddressOf(x.X)
		w := widthOf(x.X.Type())
		cur := g.fn.NewTemp()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: cur, A: base, B: off, Width: w})
		op := ir.OpAdd
		if x.Op == cast.UnPreDec || x.Op == cast.UnPostDec {
			op = ir.OpSub
		}
		nv := g.fn.NewTemp()
		g.emit(ir.Instr{Op: op, Dst: nv, A: cur, B: ir.Const(1)})
		g.emit(ir.Instr{Op: ir.OpStore, A: base, B: off, C: nv, Width: w})
		if x.Op.IsPostfix() {
			return cur
		}
		return nv
	}
	return ir.None
}

func (g *irgen) genConditional(x *cast.ConditionalExpr) ir.Value {
	g.feats.Add("expr.conditional")
	cond := g.genExpr(x.Cond)
	thenB := g.newBlock()
	elseB := g.newBlock()
	exitB := g.newBlock()
	// Use a dedicated local slot as the merge point (no SSA phi).
	slot := g.fn.Locals
	g.fn.Locals++
	g.condBr(cond, thenB, elseB)
	g.cur = thenB
	tv := g.genExpr(x.Then)
	g.emit(ir.Instr{Op: ir.OpStore,
		A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}, B: ir.Const(0), C: tv})
	g.br(exitB)
	g.cur = elseB
	ev := g.genExpr(x.Else)
	g.emit(ir.Instr{Op: ir.OpStore,
		A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}, B: ir.Const(0), C: ev})
	g.br(exitB)
	g.cur = exitB
	t := g.fn.NewTemp()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: t,
		A: ir.Value{Kind: ir.VLocal, ID: int64(slot)}, B: ir.Const(0)})
	return t
}

func (g *irgen) genCall(x *cast.CallExpr) ir.Value {
	// Build the argument list on the shared scratch stack (nested calls
	// compose via mark/cut) and carve the final slice from the arena.
	mark := len(g.valBuf)
	for _, a := range x.Args {
		v := g.genExpr(a)
		g.valBuf = append(g.valBuf, v)
	}
	args := g.vals.save(g.valBuf[mark:])
	g.valBuf = g.valBuf[:mark]
	name := ""
	if dr, ok := x.Fn.(*cast.DeclRefExpr); ok {
		name = dr.Name
	} else {
		g.genExpr(x.Fn)
		g.feats.Add("expr.indirectcall")
	}
	g.feats.Add("expr.call")
	// Coverage sites must not depend on user identifiers — every fresh
	// name would mint fresh edges, letting generators inflate coverage by
	// renaming. Only the bounded builtin set keeps its name.
	site := callUserSite
	if h, ok := builtinCallSite[name]; ok {
		site = h
	}
	g.trace.HitNHash(site, len(args))
	t := g.fn.NewTemp()
	g.emit(ir.Instr{Op: ir.OpCall, Dst: t, Callee: name, Args: args})
	return t
}

// widthOf maps a C type to its memory access width in bytes.
func widthOf(t cast.QualType) int8 {
	sz := t.Decay().Size()
	switch sz {
	case 1, 2, 4:
		return int8(sz)
	default:
		return 8
	}
}

// builtinCallees is the bounded set of libc names with dedicated
// compiler handling (and hence dedicated coverage sites).
var builtinCallees = map[string]bool{
	"printf": true, "sprintf": true, "snprintf": true, "fprintf": true,
	"scanf": true, "memset": true, "memcpy": true, "memcmp": true,
	"strlen": true, "strcpy": true, "strcmp": true, "strcat": true,
	"abort": true, "exit": true, "malloc": true, "calloc": true,
	"free": true, "rand": true, "srand": true, "abs": true, "labs": true,
	"putchar": true, "puts": true, "atoi": true, "fabs": true,
	"sqrt": true, "pow": true,
}

func isBuiltinCallee(name string) bool { return builtinCallees[name] }
