package compilersim

import (
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/compilersim/ir"
)

// AsmOp is a pseudo machine instruction kind (x86-64-flavoured).
type AsmOp int

// Pseudo machine ops.
const (
	AMov AsmOp = iota
	AAdd
	ASub
	AIMul
	AIDiv
	AShl
	AShr
	AAnd
	AOr
	AXor
	ANeg
	ANot
	ACmp
	ASet
	ALea
	ALoad
	AStore
	ACall
	ARet
	AJmp
	AJcc
	AJmpTable
	AVecOp
	ASpill
	AReload
)

var asmNames = [...]string{
	AMov: "mov", AAdd: "add", ASub: "sub", AIMul: "imul", AIDiv: "idiv",
	AShl: "shl", AShr: "shr", AAnd: "and", AOr: "or", AXor: "xor",
	ANeg: "neg", ANot: "not", ACmp: "cmp", ASet: "set", ALea: "lea",
	ALoad: "load", AStore: "store", ACall: "call", ARet: "ret",
	AJmp: "jmp", AJcc: "jcc", AJmpTable: "jmptable", AVecOp: "vecop",
	ASpill: "spill", AReload: "reload",
}

// String returns the mnemonic.
func (a AsmOp) String() string { return asmNames[a] }

// AsmInstr is a single emitted machine instruction.
type AsmInstr struct {
	Op  AsmOp
	Reg int // destination register (or -1)
}

// Object is the back-end's output for one translation unit.
type Object struct {
	Instrs   []AsmInstr
	Spills   int
	Funcs    int
	TextSize int
}

// numRegs is the size of the simulated general-purpose register file.
const numRegs = 8

// codegen is the reusable back-end state: one per compile context,
// recycled across compilations. The Object it produces is borrowed —
// valid only until the next generate call.
type codegen struct {
	obj   Object
	trace *cover.Tracer
	feats Features

	// Per-function scratch, reused across functions and compilations.
	linear []ir.Instr
	ivEnd  []int // last-use index per temp ID; -1 = unseen
	regOf  []int // assigned register per temp ID; -1 = unassigned
}

// GenerateCode lowers an optimized IR program into pseudo machine code:
// per-instruction selection, linear-scan register allocation with
// spilling, and a peephole cleanup. The returned object is freshly
// allocated and owned by the caller (per-stream contexts use
// codegen.generate and borrow instead).
func GenerateCode(prog *ir.Program, trace *cover.Tracer, feats Features) *Object {
	cg := &codegen{}
	out := *cg.generate(prog, trace, feats)
	out.Instrs = append([]AsmInstr(nil), out.Instrs...)
	return &out
}

// generate resets the codegen and lowers prog, returning the recycled
// object (borrowed: valid until the next generate on this codegen).
func (cg *codegen) generate(prog *ir.Program, trace *cover.Tracer, feats Features) *Object {
	cg.obj = Object{Instrs: cg.obj.Instrs[:0]}
	cg.trace = trace
	cg.feats = feats
	for _, f := range prog.Funcs {
		cg.genFuncCode(f)
	}
	cg.obj.TextSize = len(cg.obj.Instrs) * 4
	trace.HitN("be.textsize", cg.obj.TextSize%101)
	return &cg.obj
}

// intScratch returns buf resized to n entries, all set to -1, reusing
// capacity.
func intScratch(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// touchTemp records v's last use position in the interval table.
func touchTemp(ivEnd []int, v ir.Value, pos int) {
	if v.Kind == ir.VTemp && v.ID >= 0 && v.ID < int64(len(ivEnd)) {
		ivEnd[v.ID] = pos
	}
}

func (cg *codegen) emitAsm(op AsmOp, reg int) {
	cg.obj.Instrs = append(cg.obj.Instrs, AsmInstr{Op: op, Reg: reg})
	cg.trace.HitNHash(beSiteHash[op], reg+1)
}

func (cg *codegen) genFuncCode(f *ir.Func) {
	obj := &cg.obj
	obj.Funcs++
	// Linear-scan register allocation: compute last-use per temp over the
	// linearized instruction stream, then assign registers greedily.
	// Temp IDs are dense (0..NextTemp), so intervals and register
	// assignments live in flat slices instead of maps.
	ivEnd := intScratch(cg.ivEnd, f.NextTemp)
	cg.ivEnd = ivEnd
	linear := cg.linear[:0]
	for _, b := range f.Blocks {
		if !b.Reachable && len(b.Instrs) == 0 {
			continue
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			pos := len(linear)
			touchTemp(ivEnd, in.Dst, pos)
			touchTemp(ivEnd, in.A, pos)
			touchTemp(ivEnd, in.B, pos)
			touchTemp(ivEnd, in.C, pos)
			for _, a := range in.Args {
				touchTemp(ivEnd, a, pos)
			}
			linear = append(linear, in)
		}
	}
	cg.linear = linear
	// Greedy allocation.
	regOf := intScratch(cg.regOf, f.NextTemp)
	cg.regOf = regOf
	freeAt := [numRegs]int{}
	spills := 0
	for i := range linear {
		in := &linear[i]
		if in.Dst.Kind == ir.VTemp && in.Dst.ID < int64(len(regOf)) {
			if regOf[in.Dst.ID] < 0 {
				reg := -1
				for r := 0; r < numRegs; r++ {
					if freeAt[r] <= i {
						reg = r
						break
					}
				}
				if reg < 0 {
					spills++
					cg.trace.HitN("be.spill", spills%19)
					reg = i % numRegs // evict
				}
				regOf[in.Dst.ID] = reg
				if end := ivEnd[in.Dst.ID]; end >= 0 {
					freeAt[reg] = end + 1
				}
			}
		}
	}
	obj.Spills += spills
	if spills > 6 {
		cg.feats.Add("be.highpressure")
	}
	// Instruction selection.
	for i := range linear {
		in := &linear[i]
		reg := -1
		if in.Dst.Kind == ir.VTemp && in.Dst.ID < int64(len(regOf)) {
			reg = regOf[in.Dst.ID]
		}
		switch in.Op {
		case ir.OpConst, ir.OpCopy:
			cg.emitAsm(AMov, reg)
		case ir.OpAdd:
			cg.emitAsm(AAdd, reg)
		case ir.OpSub:
			cg.emitAsm(ASub, reg)
		case ir.OpMul:
			cg.emitAsm(AIMul, reg)
		case ir.OpDiv, ir.OpRem:
			cg.emitAsm(AIDiv, reg)
			cg.feats.Add("be.div")
		case ir.OpShl:
			cg.emitAsm(AShl, reg)
		case ir.OpShr:
			cg.emitAsm(AShr, reg)
		case ir.OpAnd:
			cg.emitAsm(AAnd, reg)
		case ir.OpOr:
			cg.emitAsm(AOr, reg)
		case ir.OpXor:
			cg.emitAsm(AXor, reg)
		case ir.OpNeg:
			cg.emitAsm(ANeg, reg)
		case ir.OpNot:
			cg.emitAsm(ANot, reg)
		case ir.OpLNot:
			cg.emitAsm(ACmp, reg)
			cg.emitAsm(ASet, reg)
		case ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			cg.emitAsm(ACmp, reg)
			cg.emitAsm(ASet, reg)
		case ir.OpLoad:
			cg.emitAsm(ALoad, reg)
		case ir.OpStore:
			cg.emitAsm(AStore, -1)
		case ir.OpAddr:
			cg.emitAsm(ALea, reg)
		case ir.OpCall:
			cg.emitAsm(ACall, reg)
		case ir.OpRet:
			cg.emitAsm(ARet, -1)
		case ir.OpBr:
			cg.emitAsm(AJmp, -1)
		case ir.OpCondBr:
			cg.emitAsm(ACmp, -1)
			cg.emitAsm(AJcc, -1)
		case ir.OpSwitch:
			if len(in.Cases) >= 5 {
				cg.emitAsm(AJmpTable, -1)
				cg.feats.Add("be.jumptable")
				cg.trace.HitN("be.jumptable", len(in.Cases)%31)
			} else {
				for range in.Cases {
					cg.emitAsm(ACmp, -1)
					cg.emitAsm(AJcc, -1)
				}
			}
		case ir.OpConvert:
			cg.emitAsm(AMov, reg)
		case ir.OpVecAdd, ir.OpVecMul:
			cg.emitAsm(AVecOp, reg)
			cg.feats.Add("be.vec")
		case ir.OpStrLen:
			cg.emitAsm(ACall, reg)
		}
	}
	// Peephole: drop adjacent redundant movs to the same register.
	cleaned := obj.Instrs[:0]
	var prev *AsmInstr
	removed := 0
	for i := range obj.Instrs {
		in := obj.Instrs[i]
		if prev != nil && prev.Op == AMov && in.Op == AMov && prev.Reg == in.Reg && in.Reg >= 0 {
			removed++
			continue
		}
		cleaned = append(cleaned, in)
		prev = &cleaned[len(cleaned)-1]
	}
	obj.Instrs = cleaned
	if removed > 0 {
		cg.trace.HitN("be.peephole", removed%13)
	}
}
