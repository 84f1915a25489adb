package cover

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetHasCount(t *testing.T) {
	m := NewMap()
	if m.Count() != 0 {
		t.Fatal("fresh map not empty")
	}
	m.Set(42)
	m.Set(42)
	m.Set(MapSize + 42) // wraps to the same bucket
	if !m.Has(42) {
		t.Error("edge 42 missing")
	}
	if m.Count() != 1 {
		t.Errorf("count = %d, want 1 (duplicates and wraps collapse)", m.Count())
	}
}

func TestMergeReportsNewEdges(t *testing.T) {
	a, b := NewMap(), NewMap()
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	if !a.HasNew(b) {
		t.Error("b has edge 3 that a lacks")
	}
	added := a.Merge(b)
	if added != 1 {
		t.Errorf("added = %d, want 1", added)
	}
	if a.HasNew(b) {
		t.Error("after merge nothing should be new")
	}
	if a.Count() != 3 {
		t.Errorf("count = %d, want 3", a.Count())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewMap()
	a.Set(7)
	c := a.Clone()
	c.Set(9)
	if a.Has(9) {
		t.Error("clone writes leaked into original")
	}
	if !c.Has(7) {
		t.Error("clone lost original edge")
	}
}

func TestTracerEdgesDependOnOrder(t *testing.T) {
	m1, m2 := NewMap(), NewMap()
	t1 := NewTracer(m1, "s")
	t1.HitStr("a")
	t1.HitStr("b")
	t2 := NewTracer(m2, "s")
	t2.HitStr("b")
	t2.HitStr("a")
	// Same sites in different order must produce different edge sets.
	if m1.Count() != 2 || m2.Count() != 2 {
		t.Fatalf("counts: %d %d", m1.Count(), m2.Count())
	}
	if !m1.HasNew(m2) && !m2.HasNew(m1) {
		t.Error("order-insensitive edges: a->b equals b->a")
	}
}

func TestTracerStageNamespacing(t *testing.T) {
	m1, m2 := NewMap(), NewMap()
	NewTracer(m1, "stage1").HitStr("x")
	NewTracer(m2, "stage2").HitStr("x")
	if !m1.HasNew(m2) && !m2.HasNew(m1) {
		t.Error("stage namespaces collide")
	}
}

// TestQuickMergeMonotone: merging never decreases the count and is
// idempotent.
func TestQuickMergeMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewMap(), NewMap()
		for i := 0; i < rng.Intn(200); i++ {
			a.Set(rng.Uint32())
		}
		for i := 0; i < rng.Intn(200); i++ {
			b.Set(rng.Uint32())
		}
		before := a.Count()
		a.Merge(b)
		mid := a.Count()
		a.Merge(b)
		after := a.Count()
		return mid >= before && mid >= b.Count() && after == mid
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeEqualsUnion: count(a ∪ b) via Merge equals counting a
// bit-level union.
func TestQuickMergeEqualsUnion(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewMap(), NewMap()
		union := map[uint32]bool{}
		for i := 0; i < rng.Intn(300); i++ {
			e := rng.Uint32() & (MapSize - 1)
			a.Set(e)
			union[e] = true
		}
		for i := 0; i < rng.Intn(300); i++ {
			e := rng.Uint32() & (MapSize - 1)
			b.Set(e)
			union[e] = true
		}
		a.Merge(b)
		return a.Count() == len(union)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMap()
	for i := 0; i < 500; i++ {
		m.Set(rng.Uint32())
	}
	w := m.Words()
	if len(w) != MapSize/64 {
		t.Fatalf("words len = %d, want %d", len(w), MapSize/64)
	}
	m2 := NewMap()
	m2.Set(9999) // must be cleared by SetWords
	m2.SetWords(w)
	if m.HasNew(m2) || m2.HasNew(m) {
		t.Error("round-tripped map differs from original")
	}
	// Mutating the returned slice must not alias the map.
	w[0] = ^uint64(0)
	if m.Count() == m2.Count()+64 {
		t.Error("Words aliases the backing array")
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("abc") != HashString("abc") {
		t.Error("hash not deterministic")
	}
	if HashString("abc") == HashString("abd") {
		t.Error("suspiciously colliding hash")
	}
}
