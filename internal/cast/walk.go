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
	w.node(n)
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
// visitor, BuildTable (table.go) with the node table it fills.
type walker struct {
	visit Visitor // called pre-order when set; false prunes

	// Table mode (visit nil): each node appends one entry to order and
	// links. Indices are relative to start, where the table's root
	// sits; cur is the index of the node whose children are being
	// handed out (-1 above the root). stamp records each node's index
	// in its base.
	order []Node
	links []link
	start int
	cur   int32
	stamp bool
}

// node handles one non-nil node.
func (w *walker) node(n Node) {
	if w.visit != nil {
		if w.visit(n) {
			w.children(n)
		}
		return
	}
	i := int32(len(w.order) - w.start)
	if w.stamp {
		n.nodeBase().idx = i
	}
	w.order = append(w.order, n)
	w.links = append(w.links, link{parent: w.cur})
	parent := w.cur
	w.cur = i
	w.children(n)
	w.cur = parent
	w.links[w.start+int(i)].end = int32(len(w.order) - w.start)
}

// child handles an interface-typed child, skipping nil and typed nil.
// Pointer-typed children are nil-checked where they are read.
func (w *walker) child(c Node) {
	if c != nil && !isNilNode(c) {
		w.node(c)
	}
}

// children hands each direct AST child of n, in source order, to node.
// This is the single source of truth for child order.
func (w *walker) children(n Node) {
	switch x := n.(type) {
	case *TranslationUnit:
		for _, d := range x.Decls {
			w.child(d)
		}
	case *FunctionDecl:
		for _, pv := range x.Params {
			if pv != nil {
				w.node(pv)
			}
		}
		if x.Body != nil {
			w.node(x.Body)
		}
	case *VarDecl:
		w.child(x.Init)
	case *RecordDecl:
		for _, fd := range x.Fields {
			if fd != nil {
				w.node(fd)
			}
		}
	case *EnumDecl:
		for _, c := range x.Constants {
			if c != nil {
				w.node(c)
			}
		}
	case *EnumConstantDecl:
		w.child(x.Value)
	case *CompoundStmt:
		for _, s := range x.Stmts {
			w.child(s)
		}
	case *DeclStmt:
		for _, d := range x.Decls {
			w.child(d)
		}
	case *ExprStmt:
		w.child(x.X)
	case *IfStmt:
		w.child(x.Cond)
		w.child(x.Then)
		w.child(x.Else)
	case *WhileStmt:
		w.child(x.Cond)
		w.child(x.Body)
	case *DoStmt:
		w.child(x.Body)
		w.child(x.Cond)
	case *ForStmt:
		w.child(x.Init)
		w.child(x.Cond)
		w.child(x.Post)
		w.child(x.Body)
	case *SwitchStmt:
		w.child(x.Cond)
		w.child(x.Body)
	case *CaseStmt:
		w.child(x.Value)
		w.child(x.Body)
	case *DefaultStmt:
		w.child(x.Body)
	case *ReturnStmt:
		w.child(x.Value)
	case *LabelStmt:
		w.child(x.Body)
	case *BinaryOperator:
		w.child(x.LHS)
		w.child(x.RHS)
	case *UnaryOperator:
		w.child(x.X)
	case *CallExpr:
		w.child(x.Fn)
		for _, a := range x.Args {
			w.child(a)
		}
	case *ArraySubscriptExpr:
		w.child(x.Base)
		w.child(x.Index)
	case *MemberExpr:
		w.child(x.Base)
	case *CastExpr:
		w.child(x.X)
	case *ConditionalExpr:
		w.child(x.Cond)
		w.child(x.Then)
		w.child(x.Else)
	case *ParenExpr:
		w.child(x.X)
	case *SizeofExpr:
		w.child(x.X)
	case *InitListExpr:
		for _, e := range x.Inits {
			w.child(e)
		}
	case *CompoundLiteralExpr:
		if x.Init != nil {
			w.node(x.Init)
		}
	case *CommaExpr:
		w.child(x.LHS)
		w.child(x.RHS)
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
// order. A checked unit is scanned through its node table.
func CollectKind(root Node, k NodeKind) []Node {
	var out []Node
	if tu, ok := root.(*TranslationUnit); ok && tu != nil && tu.order != nil {
		for _, n := range tu.order {
			if n.Kind() == k {
				out = append(out, n)
			}
		}
		return out
	}
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
