package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the ones this package prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}

}

// TestWrongReferenceFailsRun shows that each kind of reference is
// checked: a run whose reference was altered after set-up must come
// out incorrect, and the same run with the true reference correct.
func TestWrongReferenceFailsRun(t *testing.T) {
	cases := []struct{ workload, ref string }{
		{"batch", "gen-"},       // difftest oracle output
		{"batch", "FieldList"},  // frozen paper-kernel output
		{"collect", "deepwalk"}, // closed form
		{"collect", "destroy"},  // frozen
		{"collect", "with-mover"},
		{"collect", "session"}, // closed form, served by gcserve
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.ref, func(t *testing.T) {
			tampered := ""
			cfg := config{Seed: 7, Measure: time.Nanosecond, Setups: 1, tamper: func(refs map[string]string) {
				for name := range refs {
					if strings.HasPrefix(name, tc.ref) {
						refs[name] += "0"
						tampered = name
						return
					}
				}
			}}
			res, err := workloads[tc.workload](cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tampered == "" {
				t.Fatalf("no reference named %s*", tc.ref)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("run with a wrong reference for %s: correct=%v failed=%d", tampered, res.Correct, res.Failed)
			}
		})
	}
	for _, w := range []string{"batch", "collect"} {
		t.Run(w+"/true-references", func(t *testing.T) {
			res, err := workloads[w](config{Seed: 7, Measure: 200 * time.Millisecond, Setups: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
		})
	}
}

// TestTracedRunPrintsEveryLayer runs the command line in traced mode
// and checks the last line carries every per-layer metric.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "collect", "--seed", "3", "--seconds", "0.5", "--trace", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted == 0 {
		t.Fatalf("traced run: %+v", got)
	}
	for _, d := range perLayer {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s missing or with unit %q", d.Name, m.Unit)
		}
	}
	for _, name := range []string{"gc.walk_s", "gc.mark_s", "gctab.decodes", "gc.other_s", "compile.other_s", "parser.s", "gcserve.run_ms", "gcserve.inflight_max", "loadgen.late_ms"} {
		if got.Metrics[name].Value <= 0 {
			t.Errorf("collect traced run measured %s = %v", name, got.Metrics[name].Value)
		}
	}
}

// TestUsageErrors checks the exit code for a run that cannot be made.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "batch", "--trace", "2"},
		{"--workload", "batch", "--seconds", "0"},
		{"--workload", "serve"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
