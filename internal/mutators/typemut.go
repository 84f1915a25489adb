package mutators

import (
	"fmt"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
)

// The 6 Type mutators.
func init() {
	reg("StructToInt",
		"This mutator changes the type of a struct-typed variable declaration to int, exercising the compiler's handling of mismatched aggregate types.",
		muast.CatType, muast.Unsupervised, false, structToInt)

	reg("WidenIntegerType",
		"This mutator widens the declared integer type of a variable, for example from int to long long.",
		muast.CatType, muast.Supervised, false, widenIntegerType)

	reg("NarrowIntegerType",
		"This mutator narrows the declared integer type of a variable, for example from long to short.",
		muast.CatType, muast.Unsupervised, false, narrowIntegerType)

	reg("SignednessFlip",
		"This mutator flips the signedness of a variable's integer type, for example from int to unsigned int.",
		muast.CatType, muast.Supervised, false, signednessFlip)

	reg("IntToFloatType",
		"This mutator changes an integer variable's declared type to double.",
		muast.CatType, muast.Unsupervised, false, intToFloatType)

	reg("DecaySmallStruct",
		"This mutator casts a small struct variable into a long long variable and changes all member references into pointer arithmetic between the long long variable and field offsets.",
		muast.CatType, muast.Supervised, true, decaySmallStruct)
}

// retypeableLocals returns local scalar VarDecls whose type spelling can
// be substituted wholesale: single-declarator DeclStmt, basic type, and
// whose uses stay well-typed under any arithmetic retyping.
func retypeableLocals(m *muast.Manager) []*cast.VarDecl {
	pm := m.Parents()
	var out []*cast.VarDecl
	for _, vd := range m.LocalVars(nil) {
		if vd.Name == "" || vd.Ty.Q != 0 || vd.Storage != cast.StorageNone {
			continue
		}
		if _, ok := vd.Ty.T.(*cast.BasicType); !ok {
			continue
		}
		ds, ok := pm.Of(vd).(*cast.DeclStmt)
		if !ok || len(ds.Decls) != 1 {
			continue
		}
		// Address-taken variables pin their type via pointers.
		addressed := false
		for _, u := range m.UsesOf(vd) {
			if uo, ok := pm.Of(u).(*cast.UnaryOperator); ok && uo.Op == cast.UnAddr {
				addressed = true
				break
			}
		}
		if !addressed {
			out = append(out, vd)
		}
	}
	return out
}

// retypeLocal rewrites vd's declaration-specifier region to newTy.
func retypeLocal(m *muast.Manager, vd *cast.VarDecl, newTy string) bool {
	r := cast.SourceRange{Begin: vd.TypeRange.Begin, End: vd.NameRange.Begin}
	return m.ReplaceRange(r, newTy+" ")
}

// usedInShiftOrMod reports whether the variable is used where a floating
// type would not compile (%, <<, >>, ~, array index, switch condition,
// case label).
func usedInShiftOrMod(m *muast.Manager, vd *cast.VarDecl) bool {
	pm := m.Parents()
	for _, u := range m.UsesOf(vd) {
		for cur := cast.Node(u); cur != nil; cur = pm.Of(cur) {
			switch p := cur.(type) {
			case *cast.BinaryOperator:
				switch p.Op {
				case cast.BinRem, cast.BinShl, cast.BinShr, cast.BinAnd,
					cast.BinOr, cast.BinXor, cast.BinRemAssign,
					cast.BinShlAssign, cast.BinShrAssign, cast.BinAndAssign,
					cast.BinOrAssign, cast.BinXorAssign:
					return true
				}
			case *cast.UnaryOperator:
				if p.Op == cast.UnNot {
					return true
				}
			case *cast.ArraySubscriptExpr:
				return true
			case *cast.SwitchStmt:
				if containsNode(p.Cond, u) {
					return true
				}
			case *cast.CompoundStmt, *cast.FunctionDecl:
				cur = nil
			}
			if cur == nil {
				break
			}
		}
	}
	return false
}

func containsNode(root cast.Node, target cast.Node) bool {
	found := false
	cast.Walk(root, func(n cast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func structToInt(m *muast.Manager) bool {
	pm := m.Parents()
	var cands []*cast.VarDecl
	for _, vd := range m.LocalVars(nil) {
		if !vd.Ty.IsRecord() || vd.Init != nil {
			continue
		}
		if len(m.UsesOf(vd)) > 0 {
			continue // any member access would break
		}
		ds, ok := pm.Of(vd).(*cast.DeclStmt)
		if !ok || len(ds.Decls) != 1 {
			continue
		}
		cands = append(cands, vd)
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	return retypeLocal(m, vd, "int")
}

func widenIntegerType(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, vd := range retypeableLocals(m) {
		if k, _ := vd.Ty.Basic(); k >= cast.Char && k <= cast.UInt {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	wide := []string{"long", "long long"}
	if vd.Ty.IsUnsigned() {
		wide = []string{"unsigned long", "unsigned long long"}
	}
	return retypeLocal(m, vd, muast.RandElement(m, wide))
}

func narrowIntegerType(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, vd := range retypeableLocals(m) {
		if k, _ := vd.Ty.Basic(); k >= cast.Int && k <= cast.ULongLong {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	narrow := []string{"short", "signed char"}
	if vd.Ty.IsUnsigned() {
		narrow = []string{"unsigned short", "unsigned char"}
	}
	return retypeLocal(m, vd, muast.RandElement(m, narrow))
}

func signednessFlip(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	flip := map[cast.BasicKind]string{
		cast.Int: "unsigned int", cast.UInt: "int",
		cast.Long: "unsigned long", cast.ULong: "long",
		cast.Short: "unsigned short", cast.UShort: "short",
		cast.LongLong: "unsigned long long", cast.ULongLong: "long long",
		cast.Char: "unsigned char", cast.UChar: "signed char",
	}
	for _, vd := range retypeableLocals(m) {
		if k, _ := vd.Ty.Basic(); flip[k] != "" {
			cands = append(cands, vd)
		}
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	k, _ := vd.Ty.Basic()
	return retypeLocal(m, vd, flip[k])
}

func intToFloatType(m *muast.Manager) bool {
	var cands []*cast.VarDecl
	for _, vd := range retypeableLocals(m) {
		if !vd.Ty.IsInteger() {
			continue
		}
		if usedInShiftOrMod(m, vd) {
			continue
		}
		cands = append(cands, vd)
	}
	if len(cands) == 0 {
		return false
	}
	vd := muast.RandElement(m, cands)
	return retypeLocal(m, vd, "double")
}

// decaySmallStruct follows the paper's GCC #111819 mutator: a small
// struct variable's storage is replaced by a long long, and every member
// reference becomes pointer arithmetic over the combined storage.
func decaySmallStruct(m *muast.Manager) bool {
	pm := m.Parents()
	type inst struct {
		vd *cast.VarDecl
		rd *cast.RecordDecl
	}
	var cands []inst
	for _, vd := range m.LocalVars(nil) {
		rt, ok := vd.Ty.Canonical().T.(*cast.RecordType)
		if !ok || !rt.Decl.Complete || rt.Decl.IsUnion || vd.Init != nil {
			continue
		}
		if vd.Ty.Size() <= 0 || vd.Ty.Size() > 8 {
			continue
		}
		ds, ok := pm.Of(vd).(*cast.DeclStmt)
		if !ok || len(ds.Decls) != 1 {
			continue
		}
		// All uses must be direct member accesses (x.f).
		allMembers := true
		for _, u := range m.UsesOf(vd) {
			me, ok := pm.Of(u).(*cast.MemberExpr)
			if !ok || me.IsArrow || me.Base != cast.Expr(u) {
				allMembers = false
				break
			}
		}
		if allMembers {
			cands = append(cands, inst{vd, rt.Decl})
		}
	}
	if len(cands) == 0 {
		return false
	}
	c := muast.RandElement(m, cands)
	combined := m.GenerateUniqueName("combinedVar")
	// Field byte offsets under the same LP64 layout Size() uses.
	offsets := map[string]int64{}
	var off int64
	for _, f := range c.rd.Fields {
		sz := f.Ty.Size()
		if sz <= 0 {
			return false
		}
		al := sz
		if al > 8 {
			al = 8
		}
		off = (off + al - 1) / al * al
		offsets[f.Name] = off
		off += sz
	}
	// Rewrite each member access.
	for _, u := range m.UsesOf(c.vd) {
		me := pm.Of(u).(*cast.MemberExpr)
		if me.FieldDecl == nil {
			return false
		}
		repl := fmt.Sprintf("(*(%s *)((char *)&%s + %d))",
			me.FieldDecl.Ty.Unqualified().CString(), combined, offsets[me.Field])
		if !m.ReplaceNode(me, repl) {
			return false
		}
	}
	ds := pm.Of(c.vd).(*cast.DeclStmt)
	return m.ReplaceNode(ds, "long long "+combined+" = 0;")
}
