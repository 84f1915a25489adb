package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestTable6Pinned pins the rendered Table 6 and its per-compiler
// triage reports at the tiny configuration against hashes recorded
// from history, so a change to how the campaign is assembled cannot
// move the paper's RQ2 numbers unnoticed.
func TestTable6Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	r := RunTable6(tinyConfig())
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	triage, err := json.Marshal(r.Triage)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, data, want string }{
		{"Table 6", Table6(r), "d76675ce0d889dc26ea0107776ce53f83734bf00c42758686422643965407041"},
		{"triage", string(triage), "60a00ab7c0e67aca8466790cb19de0c56089e95217333a900c5528c437900565"},
	} {
		sum := sha256.Sum256([]byte(c.data))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}
