package mutators

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// The mutator pin applies every registered mutator to a fixed corpus
// and records one digest per application: whether it applied, the
// mutant, how the application faulted (none, panic or fuel) and the
// random stream's next draw. The corpus is seeds.Generate(8, s) for s
// in pinSeeds, one stream per program, then each of testSeeds under
// pinRichDraws streams, because the generated seeds hold none of the
// structures about twenty mutators need. The record, beside the
// campaign pins in the module's testdata/pins, holds one line per
// mutator: its name, then the digests in corpus order.
const (
	pinPrograms  = 8
	pinRichDraws = 8
)

var pinSeeds = []int64{1, 2, 3}

// pinCase is one (program, stream seed) application of the corpus.
type pinCase struct {
	label string
	src   string
	seed  int64
}

func pinCorpus() []pinCase {
	var out []pinCase
	for _, s := range pinSeeds {
		for j, src := range seeds.Generate(pinPrograms, s) {
			out = append(out, pinCase{fmt.Sprintf("seed %d program %d", s, j), src, s*100 + int64(j)})
		}
	}
	for i, src := range testSeeds {
		for d := 0; d < pinRichDraws; d++ {
			out = append(out, pinCase{fmt.Sprintf("testSeeds[%d] draw %d", i, d), src, int64(1000*(i+1) + d)})
		}
	}
	return out
}

// pinApply is one supervised application on a fresh manager, recovered
// the way the fuzzers' safeApply recovers it. It returns the
// application's digest and the fuel it spent.
func pinApply(mu *muast.Mutator, c pinCase) (digest string, spent int) {
	rng := rand.New(rand.NewSource(c.seed))
	mgr, err := muast.NewManager(c.src, rng)
	if err != nil {
		return "unparsed", 0
	}
	fault := "none"
	mutant, ok := func() (mutant string, ok bool) {
		defer func() {
			if r := recover(); r != nil {
				mutant, ok, fault = "", false, "panic"
				if _, cut := r.(muast.FuelExhausted); cut {
					fault = "fuel"
				}
			}
		}()
		return mu.Apply(c.src, mgr)
	}()
	h := sha256.New()
	fmt.Fprintf(h, "ok=%t fault=%s next=%d\n%s", ok, fault, rng.Int63(), mutant)
	return hex.EncodeToString(h.Sum(nil))[:8], muast.DefaultFuel - mgr.Fuel()
}

// TestMutatorOutputsPinned pins every registered mutator's output on
// the pin corpus, so a refactor of the mutators or of the μAST queries
// they use cannot move a candidate order, an RNG draw or a mutant byte
// unnoticed; a mismatch names the mutator and its first differing
// application. It also bounds the fuel any application spends there
// well below DefaultFuel, so query charges never come near the
// watchdog.
func TestMutatorOutputsPinned(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "pins", "mutators.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = f[1:]
		}
	}
	corpus := pinCorpus()
	var record []string
	maxSpent, maxName := 0, ""
	for _, mu := range muast.All() {
		got := make([]string, len(corpus))
		for i, c := range corpus {
			var spent int
			got[i], spent = pinApply(mu, c)
			if spent > maxSpent {
				maxSpent, maxName = spent, mu.Name
			}
		}
		record = append(record, mu.Name+" "+strings.Join(got, " "))
		w, ok := want[mu.Name]
		if !ok {
			t.Errorf("%s: no pin in %s", mu.Name, path)
			continue
		}
		for i := range got {
			if i >= len(w) || got[i] != w[i] {
				t.Errorf("%s: output differs first at %s", mu.Name, corpus[i].label)
				break
			}
		}
	}
	if len(want) != len(record) {
		t.Errorf("%s pins %d mutators, the registry has %d", path, len(want), len(record))
	}
	if t.Failed() {
		t.Logf("current record:\n%s", strings.Join(record, "\n"))
	}
	t.Logf("most fuel spent by one application: %d units (%s)", maxSpent, maxName)
	if maxSpent >= muast.DefaultFuel/8 {
		t.Errorf("%s spent %d fuel units, not below DefaultFuel/8 = %d", maxName, maxSpent, muast.DefaultFuel/8)
	}
}
