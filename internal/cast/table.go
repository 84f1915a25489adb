package cast

// The node table is one checked unit's nodes in Walk order (pre-order,
// source order), with each node's subtree end and parent index. A
// subtree is a contiguous run of the table, so every whole-tree query
// is a slice scan, a pruned scan jumps to the pruned node's end, and a
// parent lookup is one index. Each node carries its own index in its
// base; a lookup trusts it only when the table holds that very node at
// that index, so a node of another tree, of a hand-built tree or of a
// unit without a table is walked instead.

// link is one table entry's structure: the index one past the end of
// the node's subtree, and its parent's index (-1 for the root).
type link struct{ end, parent int32 }

// BuildTable fills tu's node table and stamps each node with its index.
// A unit's table is built once; later calls return at once. Check calls
// it, and a caller that scans the tree before checking it (the compile
// front end's coverage pass) calls it first. It writes to every node,
// so it must run before the unit is shared — never lazily on a first
// query: the parse cache hands one checked unit to many goroutines.
// The table's storage comes from tu's arena and is recycled with its
// Reset; a unit without an arena, or on an arena's first table, gets
// storage of exactly the tree's size.
func (tu *TranslationUnit) BuildTable() {
	if tu.order != nil {
		return
	}
	w := walker{cur: -1, stamp: true}
	a := tu.arena
	if a != nil {
		w.order, w.links = a.tblOrder, a.tblLinks
	}
	if cap(w.order) == 0 {
		n := CountNodes(tu)
		w.order, w.links = make([]Node, 0, n), make([]link, 0, n)
	}
	w.start = len(w.order)
	w.node(tu)
	end := len(w.order)
	tu.order = w.order[w.start:end:end]
	tu.links = w.links[w.start:end:end]
	if a != nil {
		a.tblOrder, a.tblLinks = w.order, w.links
	}
}

// index returns n's position in tu's table; ok is false when n is not
// in it.
func (tu *TranslationUnit) index(n Node) (i int32, ok bool) {
	if n == nil || isNilNode(n) {
		return 0, false
	}
	i = n.nodeBase().idx
	return i, uint32(i) < uint32(len(tu.order)) && tu.order[i] == n
}

// Subtree returns n and every node under it in Walk order. A node of
// tu's table is served in O(1) as a read-only slice of the table; any
// other node is walked into a fresh slice.
func (tu *TranslationUnit) Subtree(n Node) []Node {
	if i, ok := tu.index(n); ok {
		end := tu.links[i].end
		return tu.order[i:end:end]
	}
	var out []Node
	Walk(n, func(c Node) bool {
		out = append(out, c)
		return true
	})
	return out
}

// Parents answers parent queries over one unit from its node table.
type Parents struct{ tu *TranslationUnit }

// Parents returns tu's parent view.
func (tu *TranslationUnit) Parents() Parents { return Parents{tu} }

// Of returns n's parent, or nil for the unit itself and for nodes
// outside it. A node outside tu's table is looked up by walking tu.
func (p Parents) Of(n Node) Node {
	tu := p.tu
	if i, ok := tu.index(n); ok {
		if j := tu.links[i].parent; j >= 0 {
			return tu.order[j]
		}
		return nil
	}
	if n == nil || isNilNode(n) {
		return nil
	}
	// Walk without stamping: tu may be shared, and n may belong to
	// another unit's table. A node reached twice (hand-built trees can
	// share one) answers with its last parent, as its stamp would.
	w := walker{cur: -1}
	w.node(tu)
	var parent Node
	for i, c := range w.order {
		if j := w.links[i].parent; c == n && j >= 0 {
			parent = w.order[j]
		}
	}
	return parent
}

// EnclosingFunction returns the FunctionDecl that lexically contains n,
// or nil when n is at file scope.
func (p Parents) EnclosingFunction(n Node) *FunctionDecl {
	for cur := p.Of(n); cur != nil; cur = p.Of(cur) {
		if fd, ok := cur.(*FunctionDecl); ok {
			return fd
		}
	}
	return nil
}
