// Package cover implements AFL-style edge coverage for the simulated
// compiler. Every stage of the compiler calls Tracer.Hit with a stable
// site identifier; consecutive hits form edges (prev ^ cur style), so
// coverage reflects not just which decision points ran but in which
// order — exactly the branch-pair signal AFL-family fuzzers consume.
package cover

import "math/bits"

// MapSize is the number of edge buckets. A power of two so the edge hash
// can be masked. 64K matches AFL's classic map.
const MapSize = 1 << 16

// Map is a set of covered edges.
type Map struct {
	bits [MapSize / 64]uint64
}

// NewMap returns an empty coverage map.
func NewMap() *Map { return &Map{} }

// Set marks edge e as covered.
func (m *Map) Set(e uint32) {
	e &= MapSize - 1
	m.bits[e/64] |= 1 << (e % 64)
}

// Has reports whether edge e is covered.
func (m *Map) Has(e uint32) bool {
	e &= MapSize - 1
	return m.bits[e/64]&(1<<(e%64)) != 0
}

// Count returns the number of covered edges.
func (m *Map) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Merge ORs other into m, returning the number of edges newly added.
func (m *Map) Merge(other *Map) int {
	added := 0
	for i, w := range other.bits {
		nw := m.bits[i] | w
		added += bits.OnesCount64(nw ^ m.bits[i])
		m.bits[i] = nw
	}
	return added
}

// HasNew reports whether other covers any edge m does not.
func (m *Map) HasNew(other *Map) bool {
	for i, w := range other.bits {
		if w&^m.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of the map.
func (m *Map) Clone() *Map {
	c := &Map{}
	c.bits = m.bits
	return c
}

// Reset clears all edges.
func (m *Map) Reset() { m.bits = [MapSize / 64]uint64{} }

// Words returns a copy of the backing bit array, for serialization
// (checkpoint snapshots). The slice length is always MapSize/64.
func (m *Map) Words() []uint64 {
	w := make([]uint64, len(m.bits))
	copy(w, m.bits[:])
	return w
}

// SetWords overwrites the map from a Words-style array. Short inputs
// leave the tail clear; long inputs are truncated.
func (m *Map) SetWords(w []uint64) {
	m.Reset()
	copy(m.bits[:], w)
}

// Tracer feeds edges into a map. Each compiler stage uses its own tracer
// (seeded with a distinct stage tag) so identical site IDs in different
// stages map to different edges.
type Tracer struct {
	m    *Map
	prev uint32
}

// NewTracer returns a tracer writing into m, namespaced by stage.
func NewTracer(m *Map, stage string) *Tracer {
	return &Tracer{m: m, prev: HashString(stage)}
}

// Hit records the transition from the previous site to site.
func (t *Tracer) Hit(site uint32) {
	if t.m == nil {
		return
	}
	edge := (t.prev << 1) ^ site
	t.m.Set(edge)
	t.prev = site
}

// ResetTo repoints a tracer at m with the given stage seed, equivalent
// to NewTracer(m, stage) when seed == HashString(stage). Per-stream
// compile contexts keep four Tracer values and re-seed them per
// compilation instead of allocating fresh tracers.
func (t *Tracer) ResetTo(m *Map, seed uint32) { t.m, t.prev = m, seed }

// HitStr records a transition to a named site.
func (t *Tracer) HitStr(site string) { t.Hit(HashString(site)) }

// HitNHash is HitN for a precomputed site hash: identical edges to
// HitN(site, n) when h == HashString(site), without hashing (or
// building) the site string on the hot path.
func (t *Tracer) HitNHash(h uint32, n int) {
	t.Hit(h ^ uint32(n)*0x9e3779b9)
}

// HitN records a named site parameterized by a small integer (e.g. a
// case-count bucket), producing distinct edges per value.
func (t *Tracer) HitN(site string, n int) {
	t.Hit(HashString(site) ^ uint32(n)*0x9e3779b9)
}

// HashString is a 32-bit FNV-1a hash.
func HashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
