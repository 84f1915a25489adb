package fuzz

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// TestHavocAdvantage is a calibration probe (kept as a regular test so it
// documents the expected direction): stacked mutation rounds should find
// at least as many unique crashes as single-step mutation across seeds.
func TestHavocAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	pool := seeds.Generate(60, 1)
	comp := compilersim.New("gcc", 14)
	run := func(havocMax int, seed int64) int {
		cfg := DefaultMacroConfig()
		cfg.HavocMax = havocMax
		w := NewMacroFuzzer("m", comp, muast.All(), pool,
			rand.New(rand.NewSource(seed)), &testSink{}, cfg)
		for w.Stats().Ticks < 3000 {
			w.Step()
		}
		return w.Stats().UniqueCrashes()
	}
	single, stacked := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		single += run(1, seed)
		stacked += run(4, seed)
	}
	t.Logf("single=%d stacked=%d (summed over 3 seeds)", single, stacked)
	if stacked < single {
		t.Errorf("stacked havoc (%d) found fewer crashes than single-step (%d)",
			stacked, single)
	}
}
