package mutcheck

import (
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// FuzzMutantValidator drives the soundness contract: Analyze/Reject must
// never panic, and a static rejection must imply the compilersim front
// end also rejects — the validator may never discard a mutant the
// compiler under test accepts. The fuzzers' filter (Context.Front plus
// Classify) must give Reject's verdict and check on every input.
func FuzzMutantValidator(f *testing.F) {
	for _, s := range seeds.Generate(20, 1) {
		f.Add(s)
	}
	f.Add("")
	f.Add("int main(void) { return 0 }")
	f.Add("int x = ;")
	f.Add("int main(void) { int a[2]; return a[5] / 0; }")
	f.Add("struct S { int f; } s; int main(void) { return s; }")

	comp := compilersim.New("gcc", 12)
	opts := compilersim.DefaultOptions()
	cx := comp.NewContext()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip()
		}
		diags := Analyze(src) // must not panic on any input
		check, rejected := Reject(src)
		if rejected != HasErrors(diags) {
			t.Fatalf("Reject=%v disagrees with Analyze errors=%v", rejected, HasErrors(diags))
		}
		if err := cx.Front(src); (err != nil) != rejected ||
			(err != nil && Classify(err) != check) {
			t.Fatalf("Front error %v disagrees with Reject = (%q, %v)", err, check, rejected)
		}
		res := comp.Compile(src, opts)
		if rejected && res.OK {
			t.Fatalf("validator rejected a program the compiler accepts:\n%s", src)
		}
	})
}
