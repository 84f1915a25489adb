package compilersim

import "strings"

// Component identifies the compiler module a defect lives in, matching
// the paper's Table 4 / Table 6 classification.
type Component int

// Compiler components.
const (
	FrontEnd Component = iota
	IRGen
	Opt
	BackEnd
)

var componentNames = [...]string{"Front-End", "IR", "Opt", "Back-End"}

// String returns the component name as printed in the paper's tables.
func (c Component) String() string { return componentNames[c] }

// CrashKind is the observable consequence of a triggered defect.
type CrashKind int

// Crash kinds (Table 6 "consequences").
const (
	AssertionFailure CrashKind = iota
	SegmentationFault
	Hang
)

var crashKindNames = [...]string{
	"Assertion Failure", "Segmentation Fault", "Hang",
}

// String returns the printable kind.
func (k CrashKind) String() string { return crashKindNames[k] }

// TriggerCtx is what a defect predicate can observe about a compilation.
type TriggerCtx struct {
	Source string
	Feats  Features
	// ParseOK / CheckOK report front-end outcomes; deep-stage predicates
	// only run when both are true.
	ParseOK bool
	CheckOK bool
	// OptLevel is the requested optimization level.
	OptLevel int
}

// Bug is one injected defect.
type Bug struct {
	ID        string
	Component Component
	Kind      CrashKind
	// MinOpt gates optimizer/back-end defects behind -O levels.
	MinOpt int
	// Frames are the top two stack frames of the simulated crash, the
	// dedup key used throughout the evaluation.
	Frames  [2]string
	Message string
	Trigger func(tc *TriggerCtx) bool
}

// CrashReport is the observable outcome of hitting a defect.
type CrashReport struct {
	BugID     string
	Component Component
	Kind      CrashKind
	Frames    [2]string
	Message   string
}

// Signature is the unique-crash identifier: the top two stack frames
// (Section 5.1: "a crash is uniquely identified by its top two stack
// frames").
func (c *CrashReport) Signature() string {
	return c.Frames[0] + "|" + c.Frames[1]
}

// ---------------------------------------------------------------------
// Helper predicates over raw source text (front-end bugs must be
// reachable from invalid inputs, since error-recovery paths crash too).
// ---------------------------------------------------------------------

func maxParenDepth(src string) int {
	depth, maxD := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
			if depth > maxD {
				maxD = depth
			}
		case ')':
			depth--
		}
	}
	return maxD
}

func maxBraceDepth(src string) int {
	depth, maxD := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '{':
			depth++
			if depth > maxD {
				maxD = depth
			}
		case '}':
			depth--
		}
	}
	return maxD
}

func longestIdent(src string) int {
	longest, cur := 0, 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(cur > 0 && c >= '0' && c <= '9') {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	return longest
}

func countByte(src string, b byte) int {
	n := 0
	for i := 0; i < len(src); i++ {
		if src[i] == b {
			n++
		}
	}
	return n
}

// frontBug builds a front-end defect entry.
func frontBug(id string, kind CrashKind, f1, f2, msg string,
	trig func(*TriggerCtx) bool) Bug {
	return Bug{ID: id, Component: FrontEnd, Kind: kind,
		Frames: [2]string{f1, f2}, Message: msg, Trigger: trig}
}

func deepBug(comp Component, id string, kind CrashKind, minOpt int,
	f1, f2, msg string, trig func(*TriggerCtx) bool) Bug {
	wrapped := func(tc *TriggerCtx) bool {
		if !tc.ParseOK || !tc.CheckOK {
			return false
		}
		return trig(tc)
	}
	return Bug{ID: id, Component: comp, Kind: kind, MinOpt: minOpt,
		Frames: [2]string{f1, f2}, Message: msg, Trigger: wrapped}
}

// ---------------------------------------------------------------------
// GCC defect corpus
// ---------------------------------------------------------------------

// gccBugs reproduces the *distribution* of defects the paper found in
// GCC: 16 front-end, 18 IR-gen, 14 optimization, 2 back-end (Table 6),
// with assertion failures dominating, a few segfaults and a few hangs.
func gccBugs() []Bug {
	var bugs []Bug
	// --- Front-end (16). Several are reachable from syntactically
	// invalid inputs: error-recovery crashes that byte-level fuzzers
	// excel at finding.
	bugs = append(bugs,
		frontBug("gcc-fe-1", SegmentationFault,
			"c_parser_postfix_expression", "c_parser_expression",
			"recursion limit in paren nesting",
			func(tc *TriggerCtx) bool { return maxParenDepth(tc.Source) >= 40 }),
		frontBug("gcc-fe-2", AssertionFailure,
			"c_lex_one_token", "cpp_interpret_string",
			"unterminated string at EOF",
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK && countByte(tc.Source, '"')%2 == 1 &&
					countByte(tc.Source, '"') >= 5
			}),
		frontBug("gcc-fe-3", AssertionFailure,
			"c_parser_declaration", "finish_decl",
			"declarator stack underflow",
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK && strings.Contains(tc.Source, "((((*")
			}),
		frontBug("gcc-fe-4", SegmentationFault,
			"ggc_internal_alloc", "c_parser_translation_unit",
			"oversized identifier overflows obstack",
			func(tc *TriggerCtx) bool { return longestIdent(tc.Source) >= 120 }),
		frontBug("gcc-fe-5", AssertionFailure,
			"c_parser_braced_init", "pop_init_level",
			"brace depth tracking desync",
			func(tc *TriggerCtx) bool { return maxBraceDepth(tc.Source) >= 24 }),
		frontBug("gcc-fe-6", AssertionFailure,
			"c_parser_switch_statement", "c_finish_case",
			"case label chain corruption",
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "case") >= 26
			}),
		frontBug("gcc-fe-7", Hang,
			"c_parser_skip_to_end_of_block", "c_parser_error",
			"error recovery loops on stray '#'",
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK && strings.Contains(tc.Source, "# #")
			}),
		frontBug("gcc-fe-8", AssertionFailure,
			"build_binary_op", "convert_arguments",
			"type stub leaked into argument conversion",
			func(tc *TriggerCtx) bool {
				return tc.ParseOK && !tc.CheckOK &&
					strings.Contains(tc.Source, "(((") &&
					strings.Contains(tc.Source, "&&")
			}),
		frontBug("gcc-fe-9", AssertionFailure,
			"grokdeclarator", "start_function",
			"nested function declarator confusion",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, ")(") &&
					strings.Count(tc.Source, "typedef") >= 3
			}),
		frontBug("gcc-fe-10", SegmentationFault,
			"c_common_type", "build_conditional_expr",
			"null type in conditional with complex",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, "_Complex") &&
					strings.Count(tc.Source, "?") >= 3
			}),
		frontBug("gcc-fe-11", AssertionFailure,
			"check_bitfield_type_and_width", "finish_struct",
			"bitfield width sentinel",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, ": 0") &&
					strings.Contains(tc.Source, "struct")
			}),
		frontBug("gcc-fe-12", AssertionFailure,
			"c_parser_label", "lookup_label",
			"duplicate label in error path",
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Count(tc.Source, "goto") >= 6
			}),
		frontBug("gcc-fe-13", AssertionFailure,
			"pushdecl", "duplicate_decls",
			"redeclaration chain cycle",
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "extern") >= 5
			}),
		frontBug("gcc-fe-14", Hang,
			"c_parser_enum_specifier", "build_enumerator",
			"enormous enumerator value loop",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, "enum") &&
					strings.Contains(tc.Source, "99999999999999999999")
			}),
		frontBug("gcc-fe-15", AssertionFailure,
			"c_parser_asm_statement", "build_asm_expr",
			"stray asm clobber",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, "__asm")
			}),
		frontBug("gcc-fe-16", AssertionFailure,
			"convert_for_assignment", "c_finish_return",
			"return conversion of incomplete struct",
			func(tc *TriggerCtx) bool {
				return tc.ParseOK && !tc.CheckOK &&
					strings.Count(tc.Source, "return") >= 4 &&
					strings.Count(tc.Source, "struct") >= 2
			}),
	)
	// --- IR generation (18): require valid programs.
	bugs = append(bugs,
		deepBug(IRGen, "gcc-ir-1", AssertionFailure, 0,
			"fold_offsetof", "c_fold_array_ref",
			"__imag of cast pointer arithmetic (PR #111819)",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("expr.addrof.complex") ||
					(tc.Feats.Has("expr.cast.complex") && tc.Feats.Has("expr.addrof"))
			}),
		deepBug(IRGen, "gcc-ir-2", AssertionFailure, 0,
			"gimplify_switch_expr", "preprocess_case_label_vec",
			"empty switch arm vector",
			func(tc *TriggerCtx) bool {
				return tc.Feats["switch.arms"] >= 13
			}),
		deepBug(IRGen, "gcc-ir-3", AssertionFailure, 0,
			"gimplify_cond_expr", "shortcut_cond_expr",
			"deeply chained conditional lowering",
			func(tc *TriggerCtx) bool { return tc.Feats["expr.conditional"] >= 8 }),
		deepBug(IRGen, "gcc-ir-4", SegmentationFault, 0,
			"gimplify_compound_lval", "get_inner_reference",
			"scalar compound literal with braced init",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("expr.compoundlit.scalarbrace")
			}),
		deepBug(IRGen, "gcc-ir-5", AssertionFailure, 0,
			"gimplify_modify_expr", "gimplify_self_mod_expr",
			"self-modifying store chain",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.member"] >= 9 && tc.Feats["expr.addrof"] >= 2
			}),
		deepBug(IRGen, "gcc-ir-6", AssertionFailure, 0,
			"gimple_goto_set_dest", "gimplify_statement_list",
			"label at end of function with no successor",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("fn.void.labels.noreturn") &&
					tc.Feats["stmt.goto"] >= 2
			}),
		deepBug(IRGen, "gcc-ir-7", AssertionFailure, 0,
			"create_tmp_var", "gimplify_init_constructor",
			"struct temp materialization",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("local.struct") && tc.Feats["expr.initlist"] >= 3
			}),
		deepBug(IRGen, "gcc-ir-8", AssertionFailure, 0,
			"gimplify_call_expr", "gimplify_arg",
			"call argument re-gimplification",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.call"] >= 14 && tc.Feats["expr.conditional"] >= 2
			}),
		deepBug(IRGen, "gcc-ir-9", SegmentationFault, 0,
			"gimplify_addr_expr", "build_fold_addr_expr_loc",
			"address of vanished lvalue",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.addrof"] >= 6 && tc.Feats["expr.cast"] >= 3
			}),
		deepBug(IRGen, "gcc-ir-10", AssertionFailure, 0,
			"gimplify_var_or_parm_decl", "omp_notice_variable",
			"volatile global in nested expression",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("global.volatile") && tc.Feats["expr.logical"] >= 6
			}),
		deepBug(IRGen, "gcc-ir-11", AssertionFailure, 0,
			"gimplify_body", "gimple_set_body",
			"function body with only dead gotos",
			func(tc *TriggerCtx) bool {
				return tc.Feats["stmt.goto"] >= 6 && tc.Feats["stmt.return"] == 0
			}),
		deepBug(IRGen, "gcc-ir-12", AssertionFailure, 0,
			"force_gimple_operand", "gimplify_expr",
			"indirect call through cast",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("expr.indirectcall") && tc.Feats["expr.cast"] >= 2
			}),
		deepBug(IRGen, "gcc-ir-13", AssertionFailure, 0,
			"gimplify_decl_expr", "gimple_add_tmp_var",
			"many locals in one block",
			func(tc *TriggerCtx) bool { return tc.Feats["local.array"] >= 8 }),
		deepBug(IRGen, "gcc-ir-14", AssertionFailure, 0,
			"gimplify_omp_workshare", "gimplify_and_add",
			"float arithmetic feeding switch",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.floatarith"] >= 7 && tc.Feats["switch.arms"] >= 3
			}),
		deepBug(IRGen, "gcc-ir-15", Hang, 0,
			"gimplify_loop_expr", "gimplify_statement_list",
			"irreducible goto web",
			func(tc *TriggerCtx) bool {
				return tc.Feats["stmt.goto"] >= 5 && tc.Feats["loop.while"] >= 3 &&
					tc.Feats["stmt.label"] >= 3
			}),
		deepBug(IRGen, "gcc-ir-16", AssertionFailure, 0,
			"gimplify_init_ctor_eval", "categorize_ctor_elements",
			"nested initializer flattening",
			func(tc *TriggerCtx) bool { return tc.Feats["expr.initlist"] >= 7 }),
		deepBug(IRGen, "gcc-ir-17", AssertionFailure, 0,
			"get_initialized_tmp_var", "internal_get_tmp_var",
			"comma chain in initializer",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.div"] >= 5 && tc.Feats["expr.conditional"] >= 2
			}),
		deepBug(IRGen, "gcc-ir-18", SegmentationFault, 0,
			"gimplify_target_expr", "gimple_add_tmp_var_fn",
			"struct cast rvalue temp",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("expr.cast.struct") }),
	)
	// --- Optimization (14): require -O2.
	bugs = append(bugs,
		deepBug(Opt, "gcc-opt-1", Hang, 2,
			"vect_analyze_loop", "vect_determine_vectorization_factor",
			"loop vectorizer trip-count divergence (PR #111820)",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("opt.vec.badtrip") }),
		deepBug(Opt, "gcc-opt-2", AssertionFailure, 2,
			"verify_range", "strlen_pass::handle_builtin_sprintf",
			"sprintf-to-strlen over unterminated buffer",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("opt.strlen.unterminated") }),
		deepBug(Opt, "gcc-opt-3", AssertionFailure, 2,
			"tree_ssa_dominator_optimize", "cprop_into_stmt",
			"const-prop meets dead branch",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.deadbranch"] >= 5 && tc.Feats["opt.folded"] >= 15
			}),
		deepBug(Opt, "gcc-opt-4", AssertionFailure, 2,
			"eliminate_dom_walker", "fully_constant_vn_reference_p",
			"CSE over vectorized block",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("opt.vectorized") && tc.Feats["opt.cse"] >= 8
			}),
		deepBug(Opt, "gcc-opt-5", AssertionFailure, 2,
			"simplify_binary_operation", "fold_binary_loc",
			"re-simplification oscillation",
			func(tc *TriggerCtx) bool { return tc.Feats["opt.simplified"] >= 20 }),
		deepBug(Opt, "gcc-opt-6", SegmentationFault, 2,
			"remove_unreachable_nodes", "delete_basic_block",
			"unreachable block with live edge",
			func(tc *TriggerCtx) bool { return tc.Feats["opt.deadblock"] >= 8 }),
		deepBug(Opt, "gcc-opt-7", AssertionFailure, 2,
			"vect_transform_loop", "vect_do_peeling",
			"peeling of multi-exit loop",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("opt.vectorized") && tc.Feats["opt.loops"] >= 5
			}),
		deepBug(Opt, "gcc-opt-8", AssertionFailure, 2,
			"ivopts_rewrite_use", "rewrite_use_nonlinear_expr",
			"induction rewrite on strength-reduced loop",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("opt.strengthreduced") &&
					tc.Feats["opt.countedloop"] >= 2 && tc.Feats["opt.folded"] >= 5
			}),
		deepBug(Opt, "gcc-opt-9", AssertionFailure, 2,
			"tree_loop_unroll", "estimate_unroll_factor",
			"unroll factor overflow on folded bound",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.loops"] >= 5 && tc.Feats["opt.folded"] >= 12
			}),
		deepBug(Opt, "gcc-opt-10", Hang, 2,
			"dse_classify_store", "dse_optimize_stmt",
			"store-chain walk explosion",
			func(tc *TriggerCtx) bool { return tc.Feats["opt.deadinstr"] >= 45 }),
		deepBug(Opt, "gcc-opt-11", AssertionFailure, 2,
			"phi_translate", "compute_avail",
			"PRE over switch fallthrough web",
			func(tc *TriggerCtx) bool {
				return tc.Feats["switch.arms"] >= 9 && tc.Feats["opt.cse"] >= 5
			}),
		deepBug(Opt, "gcc-opt-12", AssertionFailure, 2,
			"fold_stmt", "maybe_fold_reference",
			"member fold through combined storage",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.member"] >= 4 && tc.Feats["opt.folded"] >= 18
			}),
		deepBug(Opt, "gcc-opt-13", AssertionFailure, 2,
			"update_ssa", "insert_updated_phi_nodes_for",
			"SSA update after aggressive DCE",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.deadblock"] >= 5 && tc.Feats["opt.deadinstr"] >= 25
			}),
		deepBug(Opt, "gcc-opt-14", AssertionFailure, 2,
			"loop_version", "tree_unswitch_single_loop",
			"unswitching a vectorized latch",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("opt.vectorized") && tc.Feats["loop.for"] >= 4 &&
					tc.Feats["opt.deadbranch"] >= 2
			}),
	)
	// --- Back-end (2).
	bugs = append(bugs,
		deepBug(BackEnd, "gcc-be-1", AssertionFailure, 2,
			"lra_assign", "assign_by_spills",
			"spill slot exhaustion with vector regs",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("be.highpressure") && tc.Feats.Has("be.vec")
			}),
		deepBug(BackEnd, "gcc-be-2", SegmentationFault, 2,
			"expand_case", "emit_case_dispatch_table",
			"jump table with folded-away default",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("be.jumptable") && tc.Feats["opt.deadbranch"] >= 4
			}),
	)
	return bugs
}

// ---------------------------------------------------------------------
// Clang defect corpus
// ---------------------------------------------------------------------

// clangBugs reproduces the Clang side of Table 6: 32 front-end, 27
// IR-gen, 8 optimization, 14 back-end defects are the paper's *reported*
// numbers; we seed a corpus with the same relative weighting at ~60%
// scale: 20 front-end, 18 IR-gen, 5 optimization, 9 back-end (total 52,
// exceeding GCC's 50 as in the paper). The first dozen entries are
// hand-written below; clangExtraBugs supplies parameterized variants.
func clangBugs() []Bug {
	bugs := clangExtraBugs()
	bugs = append(bugs,
		frontBug("clang-fe-1", SegmentationFault,
			"clang::Parser::ParseCastExpression", "clang::Parser::ParseParenExpression",
			"paren nesting overflow",
			func(tc *TriggerCtx) bool { return maxParenDepth(tc.Source) >= 35 }),
		frontBug("clang-fe-2", AssertionFailure,
			"clang::Lexer::LexTokenInternal", "clang::Lexer::LexCharConstant",
			"unterminated char literal recovery",
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK && countByte(tc.Source, '\'')%2 == 1 &&
					countByte(tc.Source, '\'') >= 3
			}),
		frontBug("clang-fe-3", AssertionFailure,
			"clang::Sema::ActOnStartOfFunctionDef", "clang::Sema::CheckFunctionDeclaration",
			"K&R definition confusion",
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Count(tc.Source, "()") >= 9
			}),
		frontBug("clang-fe-4", AssertionFailure,
			"clang::Sema::BuildResolvedCallExpr", "clang::Sema::ConvertArgumentsForCall",
			"call conversion on error type",
			func(tc *TriggerCtx) bool {
				return tc.ParseOK && !tc.CheckOK &&
					strings.Count(tc.Source, "(") >= 12
			}),
		frontBug("clang-fe-5", SegmentationFault,
			"clang::ASTContext::getTypeInfo", "clang::Sema::BuildUnaryOp",
			"sizeof of incomplete enum",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, "sizeof(enum")
			}),
		frontBug("clang-fe-6", AssertionFailure,
			"clang::Parser::ParseInitializer", "clang::Parser::ParseBraceInitializer",
			"initializer brace tracking",
			func(tc *TriggerCtx) bool { return maxBraceDepth(tc.Source) >= 20 }),
		frontBug("clang-fe-7", Hang,
			"clang::Parser::SkipUntil", "clang::Parser::ParseCompoundStatementBody",
			"recovery loop after stray '}'",
			func(tc *TriggerCtx) bool {
				return !tc.ParseOK &&
					countByte(tc.Source, '}') > countByte(tc.Source, '{')+6
			}),
		frontBug("clang-fe-8", AssertionFailure,
			"clang::Sema::ActOnLabelStmt", "clang::Sema::ActOnGotoStmt",
			"label scope leak",
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Contains(tc.Source, "goto") &&
					strings.Count(tc.Source, ":") >= 8
			}),
		frontBug("clang-fe-9", AssertionFailure,
			"clang::Sema::CheckAssignmentConstraints", "clang::Sema::DiagnoseAssignmentResult",
			"assignment diag on vanished type",
			func(tc *TriggerCtx) bool {
				return tc.ParseOK && !tc.CheckOK &&
					strings.Count(tc.Source, "=") >= 24
			}),
		frontBug("clang-fe-10", AssertionFailure,
			"clang::Parser::ParseDeclarationSpecifiers", "clang::Sema::ActOnTypedefDeclarator",
			"typedef redefinition chain",
			func(tc *TriggerCtx) bool {
				return strings.Count(tc.Source, "typedef") >= 6
			}),
		frontBug("clang-fe-11", SegmentationFault,
			"clang::Sema::ActOnNumericConstant", "clang::NumericLiteralParser::NumericLiteralParser",
			"numeric literal with absurd suffix",
			func(tc *TriggerCtx) bool {
				return strings.Contains(tc.Source, "0xfffffffffffffffff")
			}),
		frontBug("clang-fe-12", AssertionFailure,
			"clang::Sema::ActOnFields", "clang::RecordDecl::completeDefinition",
			"record completion with error fields",
			func(tc *TriggerCtx) bool {
				return !tc.CheckOK && strings.Count(tc.Source, "struct") >= 6
			}),
	)
	bugs = append(bugs,
		deepBug(IRGen, "clang-ir-1", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitBranchOnBoolExpr",
			"clang::CodeGen::CodeGenFunction::EmitGotoStmt",
			"no computation between jump and labels (issue #63762, Ret2V)",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("fn.void.labels.noreturn")
			}),
		deepBug(IRGen, "clang-ir-2", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitCompoundLiteralExpr",
			"clang::CodeGen::AggExprEmitter::VisitInitListExpr",
			"scalar compound literal with nested braces (issue #69213, StructToInt)",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("expr.compoundlit.scalarbrace")
			}),
		deepBug(IRGen, "clang-ir-3", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitComplexExpr",
			"clang::CodeGen::ComplexExprEmitter::EmitLoadOfLValue",
			"complex lvalue through cast",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("expr.cast.complex") || tc.Feats.Has("expr.addrof.complex")
			}),
		deepBug(IRGen, "clang-ir-4", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitSwitchStmt",
			"clang::CodeGen::CodeGenFunction::EmitCaseStmt",
			"dense switch over narrow type",
			func(tc *TriggerCtx) bool { return tc.Feats["switch.arms"] >= 12 }),
		deepBug(IRGen, "clang-ir-5", SegmentationFault, 0,
			"clang::CodeGen::CodeGenFunction::EmitLValue",
			"clang::CodeGen::CodeGenFunction::EmitMemberExpr",
			"member of reinterpreted storage",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.member"] >= 7 && tc.Feats["expr.cast"] >= 6
			}),
		deepBug(IRGen, "clang-ir-6", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitCallExpr",
			"clang::CodeGen::CodeGenFunction::EmitCallArgs",
			"argument emission with conditionals",
			func(tc *TriggerCtx) bool {
				return tc.Feats["expr.call"] >= 13 && tc.Feats["expr.conditional"] >= 3
			}),
		deepBug(IRGen, "clang-ir-7", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitAutoVarAlloca",
			"clang::CodeGen::CodeGenFunction::EmitAutoVarInit",
			"array alloca with flattened init",
			func(tc *TriggerCtx) bool {
				return tc.Feats["local.array"] >= 6 && tc.Feats["expr.initlist"] >= 3
			}),
		deepBug(IRGen, "clang-ir-8", Hang, 0,
			"clang::CodeGen::CodeGenFunction::EmitStmt",
			"clang::CodeGen::CodeGenFunction::EmitLabelStmt",
			"label web re-emission",
			func(tc *TriggerCtx) bool {
				return tc.Feats["stmt.goto"] >= 6 && tc.Feats["stmt.label"] >= 6
			}),
		deepBug(IRGen, "clang-ir-9", AssertionFailure, 0,
			"clang::CodeGen::CodeGenModule::EmitGlobalVarDefinition",
			"clang::CodeGen::CodeGenModule::GetAddrOfGlobalVar",
			"volatile global re-emission",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("global.volatile") && tc.Feats["expr.call"] >= 7
			}),
		deepBug(IRGen, "clang-ir-10", AssertionFailure, 0,
			"clang::CodeGen::CodeGenFunction::EmitScalarConversion",
			"clang::CodeGen::ScalarExprEmitter::EmitScalarCast",
			"chained narrowing conversions",
			func(tc *TriggerCtx) bool { return tc.Feats["expr.cast"] >= 11 }),
	)
	bugs = append(bugs,
		deepBug(Opt, "clang-opt-1", AssertionFailure, 2,
			"llvm::LoopVectorizationCostModel::computeMaxVF",
			"llvm::LoopVectorizePass::processLoop",
			"cost model on degenerate trip count",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("opt.vec.badtrip") }),
		deepBug(Opt, "clang-opt-2", AssertionFailure, 2,
			"llvm::InstCombinerImpl::visitCallInst",
			"llvm::SimplifyLibCalls::optimizeSPrintF",
			"sprintf folding over aliased buffers",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("opt.strlen.unterminated") }),
		deepBug(Opt, "clang-opt-3", Hang, 2,
			"llvm::GVNPass::processBlock", "llvm::GVNPass::performScalarPRE",
			"GVN ping-pong on simplified xors",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.simplified"] >= 15 && tc.Feats["opt.cse"] >= 9
			}),
	)
	bugs = append(bugs,
		deepBug(BackEnd, "clang-be-1", AssertionFailure, 2,
			"llvm::SelectionDAGISel::SelectCodeCommon", "llvm::SelectionDAG::Legalize",
			"illegal vector node after folding",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("be.vec") && tc.Feats["opt.folded"] >= 8
			}),
		deepBug(BackEnd, "clang-be-2", AssertionFailure, 2,
			"llvm::RegAllocFast::allocateInstruction", "llvm::RegAllocFast::spillVirtReg",
			"spill of undefined vreg",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("be.highpressure") }),
		deepBug(BackEnd, "clang-be-3", AssertionFailure, 2,
			"llvm::X86TargetLowering::LowerSwitch", "llvm::SwitchLoweringUtils::findJumpTables",
			"jump table over sparse cases",
			func(tc *TriggerCtx) bool { return tc.Feats.Has("be.jumptable") }),
		deepBug(BackEnd, "clang-be-4", SegmentationFault, 2,
			"llvm::MachineSink::SinkInstruction", "llvm::MachineBasicBlock::SplitCriticalEdge",
			"sinking across removed edge",
			func(tc *TriggerCtx) bool {
				return tc.Feats["opt.deadblock"] >= 4 && tc.Feats.Has("be.div")
			}),
		deepBug(BackEnd, "clang-be-5", AssertionFailure, 2,
			"llvm::DAGCombiner::visitMUL", "llvm::TargetLowering::BuildSDIV",
			"division strength reduction overflow",
			func(tc *TriggerCtx) bool {
				return tc.Feats["be.div"] >= 4 && tc.Feats.Has("opt.strengthreduced")
			}),
		deepBug(BackEnd, "clang-be-6", Hang, 2,
			"llvm::PeepholeOptimizer::runOnMachineFunction",
			"llvm::PeepholeOptimizer::optimizeCoalescableCopy",
			"peephole copy cycle",
			func(tc *TriggerCtx) bool {
				return tc.Feats.Has("be.highpressure") && tc.Feats["opt.cse"] >= 7
			}),
	)
	return bugs
}
