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
// address (and its nodes at the previous ones'), so a node table or
// parent state surviving from the previous program would steer
// Parents-based mutators (HoistDeclToTop) into stale nodes, and a
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

// editThenPanic records an edit, draws from the stream and grows the
// identifier set, then panics — the worst state a faulting mutator can
// leave its manager in.
var editThenPanic = &muast.Mutator{Info: muast.Info{
	Name: "TestEditThenPanic",
	Fn: func(mgr *muast.Manager) bool {
		fns := mgr.Functions()
		if len(fns) > 0 {
			fn := fns[mgr.Rand().Intn(len(fns))]
			mgr.InsertBefore(fn, "int "+mgr.GenerateUniqueName("junk")+";\n")
		}
		panic("test: mutator fault after an edit")
	},
}}

// fuelBomb shrinks its manager's budget and runs it dry, so the try
// ends in the fuel watchdog's panic with a non-default budget set.
var fuelBomb = &muast.Mutator{Info: muast.Info{
	Name: "TestFuelBomb",
	Fn: func(mgr *muast.Manager) bool {
		mgr.SetFuel(64)
		for {
			mgr.Functions()
		}
	},
}}

// tryApply is one supervised try, as the fuzzers run it: a panic
// (including fuel exhaustion) is recovered and reported as faulted.
func tryApply(mu *muast.Mutator, src string, mgr *muast.Manager) (mutant string, ok, faulted bool) {
	defer func() {
		if recover() != nil {
			mutant, ok, faulted = "", false, true
		}
	}()
	mutant, ok = mu.Apply(src, mgr)
	return
}

// TestResetAfterFailedTryMatchesFresh pins what a havoc round relies on
// when it keeps its manager bound across rounds that left the program
// unchanged: on each seed program, every registered mutator plus two
// faulting test mutators runs over one bound manager with Reset between
// tries, whatever each try returned. Each try must match a fresh
// manager on (mutant, ok, faulted) and on the next stream draw.
func TestResetAfterFailedTryMatchesFresh(t *testing.T) {
	mutators := append(muast.All(), editThenPanic, fuelBomb)
	arena := cast.NewArena()
	var bound *muast.Manager
	rngFresh := rand.New(rand.NewSource(13))
	rngBound := rand.New(rand.NewSource(13))
	var applied, failed, faulted int
	for _, seed := range []int64{1, 2, 3} {
		for pi, src := range seeds.Generate(6, seed) {
			arena.Reset()
			tu, err := cast.ParseAndCheckArena(src, arena)
			if err != nil {
				t.Fatalf("seed %d program %d: arena parse: %v", seed, pi, err)
			}
			if bound == nil {
				bound = muast.NewManagerFromTU(tu, rngBound)
			} else {
				bound.ResetTo(tu)
			}
			for k, mu := range mutators {
				if k > 0 {
					bound.Reset()
				}
				fresh, err := muast.NewManager(src, rngFresh)
				if err != nil {
					t.Fatalf("seed %d program %d: %v", seed, pi, err)
				}
				wantOut, wantOK, wantFault := tryApply(mu, src, fresh)
				gotOut, gotOK, gotFault := tryApply(mu, src, bound)
				if gotOK != wantOK || gotFault != wantFault || gotOut != wantOut {
					t.Fatalf("seed %d program %d %s: bound manager gave (%v, fault %v, %q), fresh manager (%v, fault %v, %q)",
						seed, pi, mu.Name, gotOK, gotFault, gotOut, wantOK, wantFault, wantOut)
				}
				if g, w := rngBound.Int63(), rngFresh.Int63(); g != w {
					t.Fatalf("seed %d program %d %s: stream draws diverged after the try", seed, pi, mu.Name)
				}
				switch {
				case gotFault:
					faulted++
				case gotOK:
					applied++
				default:
					failed++
				}
			}
		}
	}
	if applied == 0 || failed == 0 || faulted == 0 {
		t.Fatalf("tries: %d applied, %d not applicable, %d faulted; every outcome must precede a Reset",
			applied, failed, faulted)
	}
}
