package baselines

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

func pool() []string { return seeds.Generate(30, 42) }

func TestGrayCHasExactlyFiveMutators(t *testing.T) {
	// The paper verifies GrayC's count via --list-mutations: five.
	if got := len(grayCMutators()); got != 5 {
		t.Fatalf("GrayC mutators = %d, want 5", got)
	}
}

func TestGrayCStaysMostlyCompilable(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	g := NewGrayC("g", comp, pool(), rand.New(rand.NewSource(2)))
	for g.Stats().Ticks < 400 {
		g.Step()
	}
	if ratio := g.Stats().CompilableRatio(); ratio < 95 {
		t.Errorf("GrayC compilable = %.1f%%, want ~99%% (paper: 98.99)", ratio)
	}
}

func TestAFLMostlyNonCompilable(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	a := NewAFL("a", comp, pool(), rand.New(rand.NewSource(3)))
	for a.Stats().Ticks < 600 {
		a.Step()
	}
	ratio := a.Stats().CompilableRatio()
	if ratio > 15 {
		t.Errorf("AFL compilable = %.1f%%, want a few %% (paper: 3.53)", ratio)
	}
	if a.Stats().Coverage.Count() == 0 {
		t.Error("AFL collected no coverage")
	}
}

func TestGeneratorsAlwaysCompilable(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	cs := NewCsmith("c", comp, rand.New(rand.NewSource(4)))
	yg := NewYARPGen("y", comp, rand.New(rand.NewSource(5)))
	for i := 0; i < 200; i++ {
		cs.Step()
		yg.Step()
	}
	if ratio := cs.Stats().CompilableRatio(); ratio < 99 {
		t.Errorf("Csmith compilable = %.1f%%, want ~100%%", ratio)
	}
	// YARPGen may rarely crash the optimizer (those count non-compiled).
	if ratio := yg.Stats().CompilableRatio(); ratio < 95 {
		t.Errorf("YARPGen compilable = %.1f%%, want ~99%%", ratio)
	}
	if cs.Stats().UniqueCrashes() != 0 {
		t.Errorf("Csmith found %d crashes; the paper measured 0",
			cs.Stats().UniqueCrashes())
	}
}

func TestGeneratedProgramsParse(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	cs := NewCsmith("c", comp, rand.New(rand.NewSource(6)))
	yg := NewYARPGen("y", comp, rand.New(rand.NewSource(7)))
	for i := 0; i < 50; i++ {
		if _, err := cast.ParseAndCheck(cs.generate()); err != nil {
			t.Fatalf("csmith program invalid: %v", err)
		}
		yg.seq++
		if _, err := cast.ParseAndCheck(yg.generate()); err != nil {
			t.Fatalf("yarpgen program invalid: %v", err)
		}
		cs.seq++
	}
}

func TestGrayCMutantsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	muts := grayCMutators()
	for _, src := range pool()[:10] {
		for _, mu := range muts {
			mgr, err := newTestManager(src, rng)
			if err != nil {
				t.Fatalf("seed invalid: %v", err)
			}
			mutant, ok := mu.Apply(src, mgr)
			if !ok {
				continue
			}
			if _, err := cast.Parse(mutant); err != nil {
				t.Errorf("%s produced unparseable mutant: %v\n%s",
					mu.Name, err, mutant)
			}
		}
	}
}

// newTestManager adapts muast.NewManager for the tests above.
func newTestManager(src string, rng *rand.Rand) (*muast.Manager, error) {
	return muast.NewManager(src, rng)
}
