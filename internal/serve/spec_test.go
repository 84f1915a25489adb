package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec: any bytes a submission carries decode, normalize and
// validate to a spec or an error, never a panic; a spec that validates
// re-encodes and decodes to itself, so what the daemon admits is what
// the ledger and spec.json record.
func FuzzJobSpec(f *testing.F) {
	good, err := json.Marshal(testSpec("alpha", 7, 600))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, s := range []string{
		`{}`, `null`, `[]`, `"x"`, `{"tenant":"a","steps":1}`,
		`{"tenant":"a","steps":1,"spec_version":2}`,
		`{"tenant":"<ÿ\ud800","steps":9e18,"seed":-1,"streams":-3}`,
		`{"tenant":"a","steps":1,"compiler":"icc"}`,
		`{"tenant":"a","steps":1,"sched":"uniform","set":"all","reduce":true,"no_static":true} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec.Normalize()
		if spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("a valid spec does not encode: %v", err)
		}
		back, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("a valid spec's encoding does not decode: %v\n%s", err, enc)
		}
		if back != spec {
			t.Fatalf("round trip changed the spec\n got: %+v\nwant: %+v", back, spec)
		}
	})
}
