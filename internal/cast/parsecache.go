package cast

import (
	"sync"
	"sync/atomic"
)

// parseCacheCap bounds the memoized-parse table. Entries are whole
// translation units, so the cap trades memory for re-parse work; 1024
// comfortably covers a fuzzing pool while staying tens of megabytes.
const parseCacheCap = 1024

// parseCache memoizes successful ParseAndCheck results keyed by the
// exact source text. Safe for concurrent use: the engine's worker
// goroutines share it. Cached TranslationUnits are immutable after
// Check — every caller (muast managers, the fuzzers) only reads them —
// so handing the same *TranslationUnit to many goroutines is safe.
//
// Eviction is FIFO over a ring of keys: simple, O(1), and only a
// performance concern — a miss merely re-parses.
type parseCacheT struct {
	mu   sync.RWMutex
	m    map[string]*TranslationUnit
	ring []string // insertion-ordered keys; head is the next eviction
	head int

	hits, misses atomic.Int64
}

var parseCache = &parseCacheT{
	m:    make(map[string]*TranslationUnit, parseCacheCap),
	ring: make([]string, 0, parseCacheCap),
}

// ParseAndCheckCached is ParseAndCheck with memoization over identical
// sources, for the cold paths that parse the same program repeatedly
// (reduce, grayc, mutdsl, the metamut API, lint). No fuzzer hot loop
// uses it: their inputs are mostly fresh mutants, and an arena parse
// (ParseAndCheckArena) beats the cache there. Only successes are
// cached; errors re-parse.
func ParseAndCheckCached(src string) (*TranslationUnit, error) {
	pc := parseCache
	pc.mu.RLock()
	tu, ok := pc.m[src]
	pc.mu.RUnlock()
	if ok {
		pc.hits.Add(1)
		return tu, nil
	}
	tu, err := ParseAndCheck(src)
	if err != nil {
		return nil, err
	}
	pc.misses.Add(1)
	pc.mu.Lock()
	if _, dup := pc.m[src]; !dup {
		if len(pc.ring)-pc.head >= parseCacheCap {
			delete(pc.m, pc.ring[pc.head])
			pc.ring[pc.head] = "" // release the evicted key's string
			pc.head++
			if pc.head == len(pc.ring) {
				pc.ring = pc.ring[:0]
				pc.head = 0
			} else if pc.head > parseCacheCap {
				// Compact the consumed prefix so the ring's backing
				// array stays bounded.
				n := copy(pc.ring, pc.ring[pc.head:])
				pc.ring = pc.ring[:n]
				pc.head = 0
			}
		}
		pc.m[src] = tu
		pc.ring = append(pc.ring, src)
	}
	pc.mu.Unlock()
	return tu, nil
}

// ParseCacheStats returns the cumulative hit and miss counts of the
// memoized-parse table (process-wide; the bench harness reads deltas).
func ParseCacheStats() (hits, misses int64) {
	return parseCache.hits.Load(), parseCache.misses.Load()
}
