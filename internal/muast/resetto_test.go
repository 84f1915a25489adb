package muast_test

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// TestResetToMatchesFresh pins ResetTo's contract: a manager rebound
// onto a TU re-parsed into the same reset arena behaves exactly like
// NewManager over a fresh heap parse. Every registered mutator runs over
// every program of several seed corpora through both managers, driven by
// RNGs in lockstep; mutant, ok flag and the next stream draw must agree.
// The arena hands each re-parse back at the same *TranslationUnit
// address, so a parent map surviving from the previous program would
// steer Parents-based mutators (HoistDeclToTop) into stale nodes, and a
// surviving identifier set would shift GenerateUniqueName
// (InsertForwardGoto).
func TestResetToMatchesFresh(t *testing.T) {
	arena := cast.NewArena()
	var reused *muast.Manager
	rngFresh := rand.New(rand.NewSource(11))
	rngReused := rand.New(rand.NewSource(11))
	var prevTU *cast.TranslationUnit
	applied := map[string]int{}
	for _, seed := range []int64{1, 2, 3} {
		for pi, src := range seeds.Generate(6, seed) {
			for _, mu := range muast.All() {
				fresh, err := muast.NewManager(src, rngFresh)
				if err != nil {
					t.Fatalf("seed %d program %d: %v", seed, pi, err)
				}
				wantOut, wantOK := mu.Apply(src, fresh)

				arena.Reset()
				tu, err := cast.ParseAndCheckArena(src, arena)
				if err != nil {
					t.Fatalf("seed %d program %d: arena parse: %v", seed, pi, err)
				}
				if reused == nil {
					reused = muast.NewManagerFromTU(tu, rngReused)
				} else {
					if tu != prevTU {
						t.Fatalf("arena re-parse moved the TU; the stale-parent hazard is not exercised")
					}
					reused.ResetTo(tu)
				}
				prevTU = tu
				gotOut, gotOK := mu.Apply(src, reused)

				if gotOK != wantOK || gotOut != wantOut {
					t.Fatalf("seed %d program %d %s: ResetTo manager gave (%v, %q), fresh manager (%v, %q)",
						seed, pi, mu.Name, gotOK, gotOut, wantOK, wantOut)
				}
				if g, w := rngReused.Int63(), rngFresh.Int63(); g != w {
					t.Fatalf("seed %d program %d %s: stream draws diverged after apply", seed, pi, mu.Name)
				}
				if gotOK {
					applied[mu.Name]++
				}
			}
		}
	}
	for _, name := range []string{"HoistDeclToTop", "InsertForwardGoto"} {
		if applied[name] == 0 {
			t.Errorf("%s never applied; the corpus no longer exercises its manager state", name)
		}
	}
}
