package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestPinnedJobArtifacts pins one small fixed job's persisted outputs
// against hashes recorded from history. The daemon tests elsewhere
// compare two runs of the same tree; this one catches a change to the
// campaign assembly itself (compiler profile, arsenal, seed pool,
// scheduler wiring, flight attachment, checkpoint cadence) that would
// move both runs together.
func TestPinnedJobArtifacts(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, 2)
	spec := testSpec("pin", 3, 256)
	spec.StepsPerEpoch = 16
	spec.Reduce = true
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	rec := waitJobs(t, d, []string{id})[id]
	d.Stop()
	if rec.State != Done || rec.Crashes == 0 {
		t.Fatalf("job %s ended %s with %d crashes (%s), want DONE with crashes to reduce",
			id, rec.State, rec.Crashes, rec.Error)
	}
	want := map[string]string{
		TriageFile:     "c2ea348f44befbe78d037daef53171b553c6a98cc2ac9be9dc28301044b949b7",
		JournalFile:    "ef40de3925688dc07e230f09db10e8d91a74d647606ab068e96063dd3c822c38",
		CheckpointFile: "39607d3f5e95bf71a270a07a5b3204019aac4c99e0ba26ffae4f32321edea264",
		"results":      "73e642b2fcc586289563d9666097237b65af6c0f07ac88aa5ccd9384cdc5c1e3",
	}
	got := map[string]string{
		"results": sha([]byte(fmt.Sprintf("done=%d epochs=%d edges=%d crashes=%d",
			rec.Done, rec.Epochs, rec.Edges, rec.Crashes))),
	}
	for _, f := range []string{TriageFile, JournalFile, CheckpointFile} {
		data, err := os.ReadFile(filepath.Join(JobDir(dir, id), f))
		if err != nil {
			t.Fatal(err)
		}
		got[f] = sha(data)
	}
	for _, k := range []string{TriageFile, JournalFile, CheckpointFile, "results"} {
		if got[k] != want[k] {
			t.Errorf("%s sha256 = %s, want %s", k, got[k], want[k])
		}
	}
}
