package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer lists are the ones BENCHMARK.json declares; a test keeps
// the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the untraced run's metrics. Every workload reports all
// of them, each measured on that workload's own operations:
//
//   - compile_s: compile time of the workload's whole program set;
//   - run_s: time to run that set to completion (collect: with its
//     round of server requests);
//   - latency_*: the unit a user waits for — a batch job (compile and
//     run) or a collect pause (one Collect call).
//
// Quantities these lists cannot carry, because they are zero or
// meaningless on some workload (pause and request quantiles under
// their own names, max_rps, fail_frac), are report rows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"run_s", "s"},
	{"code_bytes", "bytes"},
	{"table_bytes", "bytes"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one pass's worth each (the
// median over traced passes). A layer a workload does not exercise
// reads 0.
var perLayer = []metricDef{
	{"parser.s", "s"},
	{"sem.s", "s"},
	{"irgen.s", "s"},
	{"irgen.instrs", "count"},
	{"opt.s", "s"},
	{"opt.instrs", "count"},
	{"codegen.s", "s"},
	{"codegen.instrs", "count"},
	{"gctab.encode_s", "s"},
	{"gctab.gc_points", "count"},
	{"gctab.derivs", "count"},
	{"compile.other_s", "s"},
	{"vmachine.mutator_s", "s"},
	{"vmachine.steps", "count"},
	{"vmachine.ns_per_step", "ns"},
	{"heap.alloc_words", "words"},
	{"gc.walk_s", "s"},
	{"gc.frames", "count"},
	{"gctab.decodes", "count"},
	{"gctab.decode_s", "s"},
	{"gc.mark_s", "s"},
	{"gc.assign_s", "s"},
	{"gc.copy_s", "s"},
	{"gc.fixup_s", "s"},
	{"gc.words_copied", "words"},
	{"gc.objects_copied", "count"},
	{"gc.steals", "count"},
	{"gc.collections", "count"},
	{"gc.collect_s", "s"},
	{"gc.other_s", "s"},
	{"gcserve.open_ms", "ms"},
	{"gcserve.run_ms", "ms"},
	{"gcserve.resume_ms", "ms"},
	{"gcserve.steps_per_req", "count"},
	{"gcserve.collections_per_req", "count"},
	{"gcserve.slices_per_req", "count"},
	{"gcserve.refused", "count"},
	{"gcserve.inflight_max", "count"},
	{"loadgen.late_ms", "ms"},
	{"host.go_gc_cycles", "count"},
	{"host.go_gc_pause_ms", "ms"},
	{"host.alloc_mb", "MB"},
	{"trace.overhead", "ratio"},
}

// layerNotes say how the per-layer rows that are not plain per-pass
// sums were measured.
var layerNotes = map[string]string{
	"compile.other_s":      "median driver.Compile wall minus median staged-stage sum on the same programs",
	"gctab.decode_s":       "first 64 Decode calls per run timed, then every 64th, scaled; includes the timer's own cost",
	"gcserve.inflight_max": "open-loop segment after the traced passes",
	"loadgen.late_ms":      "open-loop segment after the traced passes, mean",
}

// line is one row of the human-readable report printed before the
// JSON result: a metric by name with its unit and how it was sampled.
type line struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// result is one run's outcome. fail and check may be called from
// several goroutines.
type result struct {
	mu        sync.Mutex
	Workload  string
	Correct   bool
	Attempted int64
	Failed    int64
	// Metrics holds every metric the run measured, by name.
	Metrics map[string]float64
	// Report holds the human-readable rows, including the workload's
	// own metrics that are not in the two lists (pause and request
	// quantiles, max_rps, fail_frac).
	Report []line
	// Errors lists the first failed checks.
	Errors []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true, Metrics: map[string]float64{}}
}

// fail records a failed check; the run is then incorrect.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(format, args...)
}

func (r *result) failLocked(format string, args ...any) {
	r.Correct = false
	r.Failed++
	if len(r.Errors) < 16 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and records it as failed
// unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if !ok {
		r.failLocked(format, args...)
	}
}

func (r *result) report(name string, value float64, unit, note string) {
	r.Report = append(r.Report, line{name, value, unit, note})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the report rows and then, as the last line, the JSON
// object carrying the metrics of defs.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, l := range r.Report {
		fmt.Fprintf(w, "# %-28s %14.6g %-6s %s\n", l.Name, l.Value, l.Unit, l.Note)
	}
	errs := append([]string(nil), r.Errors...)
	sort.Strings(errs)
	for _, e := range errs {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
	out := jsonResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
