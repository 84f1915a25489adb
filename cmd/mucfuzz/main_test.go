package main

import (
	"flag"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	// c.json holds a snapshot; fresh.json does not.
	exists := func(path string) bool { return path == "c.json" }
	for _, tc := range []struct {
		name  string
		given map[string]string
		want  string // substring of the error; "" means accepted
	}{
		{"micro defaults", map[string]string{}, ""},
		{"micro identity and flight", map[string]string{"steps": "900", "sched": "uniform", "reduce": "true", "flight": "f.jsonl"}, ""},
		{"micro resume", map[string]string{"resume": "c.json"}, "-resume needs -macro"},
		{"micro checkpoint", map[string]string{"checkpoint": "c.json"}, "-checkpoint needs -macro"},
		{"micro streams", map[string]string{"streams": "4"}, "-streams needs -macro"},
		{"micro workers", map[string]string{"workers": "2"}, "-workers needs -macro"},
		{"micro chaos", map[string]string{"chaos": "9"}, "-chaos needs -macro"},
		{"micro triage-out", map[string]string{"triage-out": "t.json"}, "-triage-out needs -macro"},
		{"micro seed zero", map[string]string{"seed": "0"}, "-seed 0 would select the default"},
		{"micro negative seed", map[string]string{"seed": "-3"}, ""},
		{"seeds zero", map[string]string{"macro": "true", "seeds": "0"}, "-seeds 0 would select the default"},
		{"streams negative", map[string]string{"macro": "true", "streams": "-1"}, "-streams -1 would select the default"},
		{"submit seed zero", map[string]string{"submit": ":8377", "macro": "true", "seed": "0"}, "-seed 0"},
		{"baseline without recorder", map[string]string{"flight-baseline": "b.json"}, "add -flight"},
		{"baseline with report", map[string]string{"flight-baseline": "b.json", "flight-report": "true"}, ""},
		{"macro engine flags", map[string]string{"macro": "true", "streams": "4", "workers": "2", "checkpoint": "fresh.json", "chaos": "9"}, ""},
		{"macro fresh over snapshot", map[string]string{"macro": "true", "checkpoint": "c.json"}, "continue it with -resume c.json"},
		{"macro resume missing", map[string]string{"macro": "true", "resume": "fresh.json"}, "no checkpoint there"},
		{"macro resume keeps budget", map[string]string{"macro": "true", "resume": "c.json"}, ""},
		{"macro resume extends", map[string]string{"macro": "true", "resume": "c.json", "steps": "9000", "workers": "4"}, ""},
		{"macro resume same checkpoint", map[string]string{"macro": "true", "resume": "c.json", "checkpoint": "c.json"}, ""},
		{"macro resume other checkpoint", map[string]string{"macro": "true", "resume": "c.json", "checkpoint": "d.json"}, "drop -checkpoint"},
		{"macro resume seed", map[string]string{"macro": "true", "resume": "c.json", "seed": "3"}, "-seed is fixed by the snapshot"},
		{"macro resume seeds", map[string]string{"macro": "true", "resume": "c.json", "seeds": "40"}, "-seeds is fixed by the snapshot"},
		{"macro resume sched", map[string]string{"macro": "true", "resume": "c.json", "sched": "uniform"}, "-sched is fixed by the snapshot"},
		{"tenant without submit", map[string]string{"macro": "true", "tenant": "a"}, "-tenant only applies"},
		{"submit without macro", map[string]string{"submit": ":8377"}, "add -macro"},
		{"submit", map[string]string{"submit": ":8377", "macro": "true", "tenant": "a", "streams": "8", "reduce": "true"}, ""},
		{"submit resume", map[string]string{"submit": ":8377", "macro": "true", "resume": "c.json"}, "-resume has no effect with -submit"},
		{"submit checkpoint", map[string]string{"submit": ":8377", "macro": "true", "checkpoint": "c.json"}, "-checkpoint has no effect"},
		{"submit workers", map[string]string{"submit": ":8377", "macro": "true", "workers": "2"}, "-workers has no effect"},
		{"submit chaos", map[string]string{"submit": ":8377", "macro": "true", "chaos": "9"}, "-chaos has no effect"},
		{"submit flight", map[string]string{"submit": ":8377", "macro": "true", "flight-report": "true"}, "-flight-report has no effect"},
		{"submit lint", map[string]string{"submit": ":8377", "macro": "true", "lint": "true"}, "-lint has no effect"},
		{"submit metrics", map[string]string{"submit": ":8377", "macro": "true", "metrics-out": "m.json"}, "-metrics-out has no effect"},
	} {
		err := checkFlags(tc.given, exists)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestFlagListsNameRealFlags(t *testing.T) {
	// checkFlags only sees names that flag.Visit reports, so a listed
	// name with no registered flag is never checked.
	for list, names := range map[string][]string{
		"engineFlags": engineFlags, "localFlags": localFlags, "snapshotFlags": snapshotFlags,
	} {
		for _, name := range names {
			if flag.Lookup(name) == nil {
				t.Errorf("%s names -%s, which is not a registered flag", list, name)
			}
		}
	}
}
