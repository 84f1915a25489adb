package muast

import (
	"reflect"
	"regexp"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// identRe is the former identifier scan, kept as the reference for
// identsMap's byte scanner.
var identRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

func refIdents(src string) map[string]bool {
	out := map[string]bool{}
	for _, id := range identRe.FindAllString(src, -1) {
		out[id] = true
	}
	return out
}

// TestIdentsMapMatchesRegexp requires identsMap to find exactly the
// regexp's identifier set: over the seed corpus, and over words inside
// strings, comments, character and hex literals, where the scan must
// split at the same places.
func TestIdentsMapMatchesRegexp(t *testing.T) {
	srcs := seeds.Generate(120, 7000)
	srcs = append(srcs,
		"int main(void) { char *s = \"x_1 y2_ _z\"; /* c_3 4d */ return 0x1fA + 0XbeefUL + 07 + 1e5f + 'q'; } // tail_9",
		"int _a9, a_b_c; double d = .5e+3L; int x = 0x_y; int y = 12ab_c;",
		"int \xc3\xa9t\xc3\xa9; int v\x80w = 1;",
		"",
	)
	for i, src := range srcs {
		m := NewManagerFromTU(&cast.TranslationUnit{Source: src}, nil)
		if got, want := m.identsMap(), refIdents(src); !reflect.DeepEqual(got, want) {
			t.Errorf("source %d: identsMap = %v, want %v", i, got, want)
		}
	}
}
