package compilersim

import "strings"

// clangExtraBugs extends the Clang corpus so its module distribution
// matches Table 6's shape (Clang's front-end and back-end dominate its
// bug population, and Clang's total exceeds GCC's). The variants are
// parameterized combinations over the same feature vocabulary as the
// hand-written entries, each with distinct stack frames.
func clangExtraBugs() []Bug {
	var bugs []Bug

	// Eight further front-end defects (total 20 vs GCC's 16), several of
	// them error-recovery crashes reachable from invalid inputs.
	feVariants := []struct {
		id, f1, f2, msg string
		kind            CrashKind
		trig            func(*TriggerCtx) bool
	}{
		{"clang-fe-13", "clang::Parser::ParseStatementOrDeclaration",
			"clang::Parser::ParseExprStatement",
			"statement depth bookkeeping", AssertionFailure,
			func(tc *TriggerCtx) bool { return maxBraceDepth(tc.Source) >= 28 }},
		{"clang-fe-14", "clang::Sema::ActOnCaseStmt",
			"clang::Sema::ActOnFinishSwitchStmt",
			"case value folding on error", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "case") >= 30
			}},
		{"clang-fe-15", "clang::Sema::BuildBinOp",
			"clang::Sema::CreateBuiltinBinOp",
			"binop rebuild during recovery", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Count(tc.Source, "<<") >= 6
			}},
		{"clang-fe-16", "clang::Lexer::SkipBlockComment",
			"clang::Lexer::LexTokenInternal",
			"unterminated block comment at EOF", SegmentationFault,
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK && strings.Contains(tc.Source, "/*") &&
					!strings.Contains(tc.Source, "*/")
			}},
		{"clang-fe-17", "clang::Sema::ActOnIdExpression",
			"clang::Sema::DiagnoseEmptyLookup",
			"typo correction over many unknowns", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return tc.ParseOK && !tc.CheckOK && longestIdent(tc.Source) >= 60
			}},
		{"clang-fe-18", "clang::Parser::ParseCompoundLiteralExpression",
			"clang::Sema::BuildCompoundLiteralExpr",
			"compound literal in error context", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Contains(tc.Source, "){")
			}},
		{"clang-fe-19", "clang::Sema::CheckImplicitConversion",
			"clang::Sema::DiagnoseImpCast",
			"impcast diag on huge literal chain", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "2147483647") >= 3
			}},
		{"clang-fe-20", "clang::Parser::ParseGotoStatement",
			"clang::Sema::ActOnAddrLabel",
			"label address in broken scope", SegmentationFault,
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Count(tc.Source, "goto") >= 7
			}},
	}
	for _, v := range feVariants {
		bugs = append(bugs, frontBug(v.id, v.kind, v.f1, v.f2, v.msg, v.trig))
	}

	// Eight further IR-generation defects (total 18).
	irVariants := []struct {
		id, f1, f2, msg string
		kind            CrashKind
		trig            func(*TriggerCtx) bool
	}{
		{"clang-ir-11", "clang::CodeGen::CodeGenFunction::EmitBinaryOperator",
			"clang::CodeGen::ScalarExprEmitter::EmitBinOps",
			"float/int mixed reduction chain", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.floatarith"] >= 9 && tc.Feats["expr.call"] >= 2
			}},
		{"clang-ir-12", "clang::CodeGen::CodeGenFunction::EmitDoStmt",
			"clang::CodeGen::CodeGenFunction::EmitBranchThroughCleanup",
			"do-while cleanup scope", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return tc.Feats["loop.do"] >= 3 && tc.Feats.Has("stmt.goto")
			}},
		{"clang-ir-13", "clang::CodeGen::CodeGenFunction::EmitArraySubscriptExpr",
			"clang::CodeGen::CodeGenFunction::EmitCheckedLValue",
			"nested subscript of cast base", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return tc.Feats["local.array"] >= 5 && tc.Feats["expr.cast"] >= 5
			}},
		{"clang-ir-14", "clang::CodeGen::CodeGenFunction::EmitCompoundStmt",
			"clang::CodeGen::CodeGenFunction::EmitStopPoint",
			"deep block nesting stop points", AssertionFailure,
			func(tc *TriggerCtx) bool { return maxBraceDepth(tc.Source) >= 16 && tc.CheckOK }},
		{"clang-ir-15", "clang::CodeGen::CodeGenModule::EmitTopLevelDecl",
			"clang::CodeGen::CodeGenModule::EmitGlobal",
			"many static wrappers", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return tc.Feats["fn.count"] >= 10 && strings.Count(tc.Source, "static") >= 8
			}},
		{"clang-ir-16", "clang::CodeGen::CodeGenFunction::EmitConditionalOperator",
			"clang::CodeGen::CodeGenFunction::EmitBranchToCounterBlock",
			"conditional chain counter blocks", AssertionFailure,
			func(tc *TriggerCtx) bool { return tc.Feats["expr.conditional"] >= 10 }},
		{"clang-ir-17", "clang::CodeGen::CodeGenFunction::EmitUnaryOperator",
			"clang::CodeGen::ScalarExprEmitter::VisitUnaryLNot",
			"negation tower emission", AssertionFailure,
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "!!") >= 3 ||
					strings.Count(tc.Source, "~~") >= 3
			}},
		{"clang-ir-18", "clang::CodeGen::CodeGenFunction::EmitStoreThroughLValue",
			"clang::CodeGen::CodeGenFunction::EmitStoreOfScalar",
			"store through reinterpreted member", SegmentationFault,
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.member"] >= 6 && tc.Feats.Has("expr.addrof") &&
					tc.Feats["expr.cast"] >= 3
			}},
	}
	for _, v := range irVariants {
		bugs = append(bugs, deepBug(IRGen, v.id, v.kind, 0, v.f1, v.f2, v.msg, v.trig))
	}

	// Two further optimizer defects (total 5).
	bugs = append(bugs,
		deepBug(Opt, "clang-opt-4", AssertionFailure, 2,
			"llvm::SROAPass::runOnAlloca", "llvm::sroa::AllocaSliceRewriter::visit",
			"slice rewrite of decayed aggregate",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("local.struct") && tc.Feats["opt.folded"] >= 12
			}),
		deepBug(Opt, "clang-opt-5", AssertionFailure, 2,
			"llvm::JumpThreadingPass::processBlock", "llvm::JumpThreadingPass::threadEdge",
			"thread through folded switch arm",
			func(tc *TriggerCtx) bool {
				return tc.Feats["switch.arms"] >= 7 && tc.Feats["opt.deadbranch"] >= 3
			}),
	)

	// Three further back-end defects (total 9 vs GCC's 2 — Clang's
	// back-end dominates its crash population in Table 6).
	bugs = append(bugs,
		deepBug(BackEnd, "clang-be-7", AssertionFailure, 2,
			"llvm::ScheduleDAGRRList::Schedule", "llvm::ScheduleDAGSDNodes::BuildSchedGraph",
			"scheduling dag over vec ops",
			func(tc *TriggerCtx) bool {
				return tc.Feats["be.vec"] >= 3 && tc.Feats.Has("be.div")
			}),
		deepBug(BackEnd, "clang-be-8", AssertionFailure, 2,
			"llvm::X86FrameLowering::emitPrologue", "llvm::MachineFrameInfo::estimateStackSize",
			"frame estimate with many spills",
			func(tc *TriggerCtx) bool { return tc.Feats["be.highpressure"] >= 2 }),
		deepBug(BackEnd, "clang-be-9", SegmentationFault, 2,
			"llvm::BranchFolder::OptimizeFunction", "llvm::BranchFolder::TailMergeBlocks",
			"tail merge of emptied blocks",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.deadblock"] >= 6 && tc.Feats.Has("be.jumptable")
			}),
	)
	return bugs
}
