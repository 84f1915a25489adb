package cast

import (
	"sort"
	"strings"
)

// Rewriter applies textual edits to the original source buffer, in the
// style of Clang's Rewriter: mutators record replacements/insertions
// against original byte offsets and the final text is produced once.
//
// Edits never see each other: all offsets refer to the ORIGINAL buffer.
// Overlapping replacements are rejected (the second edit returns false),
// which mirrors how careless Clang rewrites silently corrupt output — our
// mutators are expected to avoid overlaps.
type Rewriter struct {
	src   string
	edits []edit
}

type edit struct {
	begin, end int    // original-buffer range being replaced
	text       string // replacement text
	seq        int    // tie-break: stable order for same-point insertions
}

// NewRewriter returns a rewriter over src.
func NewRewriter(src string) *Rewriter { return &Rewriter{src: src} }

// Source returns the original, unedited buffer.
func (rw *Rewriter) Source() string { return rw.src }

// HasEdits reports whether any edit has been recorded.
func (rw *Rewriter) HasEdits() bool { return len(rw.edits) > 0 }

func (rw *Rewriter) validRange(begin, end int) bool {
	return begin >= 0 && begin <= end && end <= len(rw.src)
}

// overlaps reports whether [begin,end) overlaps an existing replacement.
// Pure insertions (begin == end) never conflict.
func (rw *Rewriter) overlaps(begin, end int) bool {
	if begin == end {
		return false
	}
	for _, e := range rw.edits {
		if e.begin == e.end {
			continue
		}
		if begin < e.end && e.begin < end {
			return true
		}
	}
	return false
}

// ReplaceText replaces the original text in r with text.
func (rw *Rewriter) ReplaceText(r SourceRange, text string) bool {
	return rw.replace(r.Begin, r.End, text)
}

// ReplaceNode replaces the full source extent of node n with text.
func (rw *Rewriter) ReplaceNode(n Node, text string) bool {
	r := n.Range()
	return rw.replace(r.Begin, r.End, text)
}

// RemoveText deletes the original text in r.
func (rw *Rewriter) RemoveText(r SourceRange) bool {
	return rw.replace(r.Begin, r.End, "")
}

// RemoveNode deletes the full source extent of node n.
func (rw *Rewriter) RemoveNode(n Node) bool {
	return rw.ReplaceNode(n, "")
}

// InsertTextBefore inserts text immediately before offset pos.
func (rw *Rewriter) InsertTextBefore(pos int, text string) bool {
	return rw.replace(pos, pos, text)
}

// InsertTextAfter inserts text immediately after the range r.
func (rw *Rewriter) InsertTextAfter(r SourceRange, text string) bool {
	return rw.replace(r.End, r.End, text)
}

func (rw *Rewriter) replace(begin, end int, text string) bool {
	if !rw.validRange(begin, end) || rw.overlaps(begin, end) {
		return false
	}
	rw.edits = append(rw.edits, edit{begin: begin, end: end, text: text,
		seq: len(rw.edits)})
	return true
}

// Rewritten materializes the edited buffer.
func (rw *Rewriter) Rewritten() string {
	if len(rw.edits) == 0 {
		return rw.src
	}
	bufp := editPool.Get().(*[]edit)
	edits := append((*bufp)[:0], rw.edits...)
	defer func() {
		*bufp = edits[:0]
		editPool.Put(bufp)
	}()
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].begin != edits[j].begin {
			return edits[i].begin < edits[j].begin
		}
		// Replacements at the same point run after insertions so that an
		// insert-before lands before the replaced text.
		li, lj := edits[i].begin == edits[i].end, edits[j].begin == edits[j].end
		if li != lj {
			return li
		}
		return edits[i].seq < edits[j].seq
	})
	var sb strings.Builder
	sb.Grow(len(rw.src) + 64)
	cur := 0
	for _, e := range edits {
		if e.begin < cur {
			// Insertion inside an earlier replacement; drop it.
			continue
		}
		sb.WriteString(rw.src[cur:e.begin])
		sb.WriteString(e.text)
		cur = e.end
	}
	sb.WriteString(rw.src[cur:])
	return sb.String()
}

// Reset discards all recorded edits.
func (rw *Rewriter) Reset() { rw.edits = rw.edits[:0] }

// ResetTo discards all recorded edits and rebinds the rewriter to src,
// making it equivalent to NewRewriter(src) while keeping the edit
// buffer's capacity.
func (rw *Rewriter) ResetTo(src string) {
	rw.src = src
	rw.edits = rw.edits[:0]
}

// GetSourceText extracts the original text of a range.
func (rw *Rewriter) GetSourceText(r SourceRange) string {
	if !rw.validRange(r.Begin, r.End) {
		return ""
	}
	return rw.src[r.Begin:r.End]
}

// FindStrLocFrom locates target in the original buffer at or after loc,
// returning its offset or -1. Mirrors the μAST findStrLocFrom API.
func (rw *Rewriter) FindStrLocFrom(loc int, target string) int {
	if loc < 0 || loc > len(rw.src) {
		return -1
	}
	i := strings.Index(rw.src[loc:], target)
	if i < 0 {
		return -1
	}
	return loc + i
}

// FindBracesRange identifies the extent of the first brace pair that opens
// at or after from, including the braces. Mirrors μAST findBracesRange.
func (rw *Rewriter) FindBracesRange(from int) (SourceRange, bool) {
	open := rw.FindStrLocFrom(from, "{")
	if open < 0 {
		return SourceRange{}, false
	}
	depth := 0
	for i := open; i < len(rw.src); i++ {
		switch rw.src[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return SourceRange{open, i + 1}, true
			}
		}
	}
	return SourceRange{}, false
}
