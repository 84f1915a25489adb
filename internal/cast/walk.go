package cast

// Visitor is called for each node during a Walk. Returning false stops
// descent into the node's children (the walk continues with siblings).
type Visitor func(n Node) bool

// Walk traverses the AST rooted at n in source order, calling v for every
// node (pre-order). Traversal allocates nothing and recurses without a
// per-node closure; walker.children holds the one child order.
func Walk(n Node, v Visitor) {
	if n == nil || isNilNode(n) {
		return
	}
	w := walker{visit: v}
	w.node(nil, n)
}

// isNilNode guards against typed-nil interface values.
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *TranslationUnit:
		return x == nil
	case *FunctionDecl:
		return x == nil
	case *VarDecl:
		return x == nil
	case *ParmVarDecl:
		return x == nil
	case *FieldDecl:
		return x == nil
	case *RecordDecl:
		return x == nil
	case *EnumDecl:
		return x == nil
	case *EnumConstantDecl:
		return x == nil
	case *TypedefDecl:
		return x == nil
	case *CompoundStmt:
		return x == nil
	case *DeclStmt:
		return x == nil
	case *ExprStmt:
		return x == nil
	case *IfStmt:
		return x == nil
	case *WhileStmt:
		return x == nil
	case *DoStmt:
		return x == nil
	case *ForStmt:
		return x == nil
	case *SwitchStmt:
		return x == nil
	case *CaseStmt:
		return x == nil
	case *DefaultStmt:
		return x == nil
	case *BreakStmt:
		return x == nil
	case *ContinueStmt:
		return x == nil
	case *ReturnStmt:
		return x == nil
	case *GotoStmt:
		return x == nil
	case *LabelStmt:
		return x == nil
	case *NullStmt:
		return x == nil
	case *IntegerLiteral:
		return x == nil
	case *FloatingLiteral:
		return x == nil
	case *CharLiteral:
		return x == nil
	case *StringLiteral:
		return x == nil
	case *DeclRefExpr:
		return x == nil
	case *BinaryOperator:
		return x == nil
	case *UnaryOperator:
		return x == nil
	case *CallExpr:
		return x == nil
	case *ArraySubscriptExpr:
		return x == nil
	case *MemberExpr:
		return x == nil
	case *CastExpr:
		return x == nil
	case *ConditionalExpr:
		return x == nil
	case *ParenExpr:
		return x == nil
	case *SizeofExpr:
		return x == nil
	case *InitListExpr:
		return x == nil
	case *CompoundLiteralExpr:
		return x == nil
	case *CommaExpr:
		return x == nil
	}
	return false
}

// walker is the package's one AST traversal: Walk drives it with a
// visitor, BuildParentMapInto with a parent map.
type walker struct {
	visit   Visitor   // called pre-order when set; false prunes
	parents ParentMap // records every node's parent when set
}

// node handles one non-nil node reached from parent.
func (w *walker) node(parent, n Node) {
	if w.parents != nil {
		w.parents[n] = parent
	}
	if w.visit == nil || w.visit(n) {
		w.children(n)
	}
}

// child handles an interface-typed child, skipping nil and typed nil.
// Pointer-typed children are nil-checked where they are read.
func (w *walker) child(parent, c Node) {
	if c != nil && !isNilNode(c) {
		w.node(parent, c)
	}
}

// children hands each direct AST child of n, in source order, to node.
// This is the single source of truth for child order.
func (w *walker) children(n Node) {
	switch x := n.(type) {
	case *TranslationUnit:
		for _, d := range x.Decls {
			w.child(n, d)
		}
	case *FunctionDecl:
		for _, pv := range x.Params {
			if pv != nil {
				w.node(n, pv)
			}
		}
		if x.Body != nil {
			w.node(n, x.Body)
		}
	case *VarDecl:
		w.child(n, x.Init)
	case *RecordDecl:
		for _, fd := range x.Fields {
			if fd != nil {
				w.node(n, fd)
			}
		}
	case *EnumDecl:
		for _, c := range x.Constants {
			if c != nil {
				w.node(n, c)
			}
		}
	case *EnumConstantDecl:
		w.child(n, x.Value)
	case *CompoundStmt:
		for _, s := range x.Stmts {
			w.child(n, s)
		}
	case *DeclStmt:
		for _, d := range x.Decls {
			w.child(n, d)
		}
	case *ExprStmt:
		w.child(n, x.X)
	case *IfStmt:
		w.child(n, x.Cond)
		w.child(n, x.Then)
		w.child(n, x.Else)
	case *WhileStmt:
		w.child(n, x.Cond)
		w.child(n, x.Body)
	case *DoStmt:
		w.child(n, x.Body)
		w.child(n, x.Cond)
	case *ForStmt:
		w.child(n, x.Init)
		w.child(n, x.Cond)
		w.child(n, x.Post)
		w.child(n, x.Body)
	case *SwitchStmt:
		w.child(n, x.Cond)
		w.child(n, x.Body)
	case *CaseStmt:
		w.child(n, x.Value)
		w.child(n, x.Body)
	case *DefaultStmt:
		w.child(n, x.Body)
	case *ReturnStmt:
		w.child(n, x.Value)
	case *LabelStmt:
		w.child(n, x.Body)
	case *BinaryOperator:
		w.child(n, x.LHS)
		w.child(n, x.RHS)
	case *UnaryOperator:
		w.child(n, x.X)
	case *CallExpr:
		w.child(n, x.Fn)
		for _, a := range x.Args {
			w.child(n, a)
		}
	case *ArraySubscriptExpr:
		w.child(n, x.Base)
		w.child(n, x.Index)
	case *MemberExpr:
		w.child(n, x.Base)
	case *CastExpr:
		w.child(n, x.X)
	case *ConditionalExpr:
		w.child(n, x.Cond)
		w.child(n, x.Then)
		w.child(n, x.Else)
	case *ParenExpr:
		w.child(n, x.X)
	case *SizeofExpr:
		w.child(n, x.X)
	case *InitListExpr:
		for _, e := range x.Inits {
			w.child(n, e)
		}
	case *CompoundLiteralExpr:
		if x.Init != nil {
			w.node(n, x.Init)
		}
	case *CommaExpr:
		w.child(n, x.LHS)
		w.child(n, x.RHS)
	}
}

// Children returns a node's direct AST children in source order. Nil
// children are omitted. Hot paths should prefer Walk, which does not
// allocate the slice.
func Children(n Node) []Node {
	var out []Node
	Walk(n, func(c Node) bool {
		if c == n {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

// CollectKind returns all nodes of the given kind under root, in source
// order.
func CollectKind(root Node, k NodeKind) []Node {
	var out []Node
	Walk(root, func(n Node) bool {
		if n.Kind() == k {
			out = append(out, n)
		}
		return true
	})
	return out
}

// CountNodes returns the total number of AST nodes under root.
func CountNodes(root Node) int {
	n := 0
	Walk(root, func(Node) bool { n++; return true })
	return n
}

// ParentMap maps each node to its parent, built with BuildParentMapInto.
type ParentMap map[Node]Node

// BuildParentMapInto fills pm (allocating it when nil) with the parent of
// every node under root and returns it. Hot loops pass a cleared map to
// reuse its buckets across mutants.
func BuildParentMapInto(pm ParentMap, root Node) ParentMap {
	if pm == nil {
		pm = ParentMap{}
	}
	w := walker{parents: pm}
	w.children(root)
	return pm
}

// EnclosingFunction returns the FunctionDecl that lexically contains n, or
// nil when n is at file scope.
func (pm ParentMap) EnclosingFunction(n Node) *FunctionDecl {
	for cur := pm[n]; cur != nil; cur = pm[cur] {
		if fd, ok := cur.(*FunctionDecl); ok {
			return fd
		}
	}
	return nil
}
