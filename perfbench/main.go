// Command perfbench is the repository's benchmark. It runs one of two
// workloads under the default configuration (driver.NewOptions, or
// gcserve.DefaultOptions for the server), checks every output against
// a reference that does not come from the configuration under test,
// and prints its metrics.
//
//	perfbench --workload batch|collect --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced passes over the same inputs, checks
// that both produce identical outputs, collection counts and copied
// words, and reports the per-layer metrics: the traced pass times every
// call into a layer's public functions from this package.
//
// Human-readable rows, prefixed with "#", come first; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 for a correct run, 1 when a
// check failed and 2 when the run could not be made.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what a workload run needs from the command line.
type config struct {
	Seed    int64
	Measure time.Duration
	Trace   bool
	// Setups is how many times the workload is set up; setup_s is the
	// median and only the first set-up is measured.
	Setups int
	// tamper, when set, edits the references after set-up. Tests use
	// it to show that a wrong reference fails the run.
	tamper func(refs map[string]string)
}

var workloads = map[string]func(config) (*result, error){
	"batch":   runBatch,
	"collect": runCollect,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch or collect")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload batch|collect --seed N --seconds S --trace 0|1\n")
		return 2
	}
	// All load comes from this process on at most nproc threads.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := config{
		Seed:    *seed,
		Measure: time.Duration(*secs * float64(time.Second)),
		Trace:   *trace == 1,
		Setups:  7,
	}
	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", *name, err)
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d\n",
		*name, *seed, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := res.write(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", *name, err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// setup is a workload's set-up, made cfg.Setups times. The first
// set-up builds the state the run measures; passes makes the others
// during the measurement, spread evenly over it, so that a burst of
// load on the host cannot move them all. Each later set-up must agree
// with the first on its references, so set-up itself is checked for
// determinism, and is then released. setup_s is the median time.
type setup[T any] struct {
	build   func() (T, map[string]string, error)
	release func(T)
	first   map[string]string
	times   []float64
}

// newSetup makes the first set-up and returns the state and the
// references the run checks against.
func newSetup[T any](cfg config, build func() (T, map[string]string, error), release func(T)) (*setup[T], T, map[string]string, error) {
	su := &setup[T]{build: build, release: release}
	v, refs, err := su.timed()
	if err != nil {
		return nil, v, nil, err
	}
	su.first = maps.Clone(refs)
	if cfg.tamper != nil {
		cfg.tamper(refs)
	}
	return su, v, refs, nil
}

func (su *setup[T]) timed() (T, map[string]string, error) {
	t := time.Now()
	v, refs, err := su.build()
	su.times = append(su.times, seconds(time.Since(t)))
	return v, refs, err
}

// again makes one more set-up, checks it and releases it.
func (su *setup[T]) again() error {
	v, refs, err := su.timed()
	if err != nil {
		return err
	}
	su.release(v)
	for k, want := range su.first {
		if refs[k] != want {
			return fmt.Errorf("set-up %d: reference for %s differs from set-up 1", len(su.times), k)
		}
	}
	return nil
}

func (su *setup[T]) seconds() float64 { return median(su.times) }

// passes runs untraced passes until they have taken cfg.Measure, at
// least one, and calls again cfg.Setups-1 times spread over that
// time. A traced run runs pairs of one untraced and one traced pass,
// alternating which goes first. It returns the wall time of each kind
// of pass.
func passes(cfg config, again, untraced, traced func()) (plain, tracedWall []float64) {
	timed := func(f func(), into *[]float64) {
		t := time.Now()
		f()
		*into = append(*into, seconds(time.Since(t)))
	}
	// elapsed is the time spent in passes, set-ups excluded.
	start := time.Now()
	var inSetUp time.Duration
	elapsed := func() time.Duration { return time.Since(start) - inSetUp }
	made := 1
	setUps := func(all bool) {
		for made < cfg.Setups && (all || elapsed() >= time.Duration(made)*cfg.Measure/time.Duration(cfg.Setups)) {
			t := time.Now()
			again()
			inSetUp += time.Since(t)
			made++
		}
	}
	for pair := 0; pair == 0 || elapsed() < cfg.Measure; pair++ {
		switch {
		case !cfg.Trace:
			timed(untraced, &plain)
		case pair%2 == 0:
			timed(untraced, &plain)
			timed(traced, &tracedWall)
		default:
			timed(traced, &tracedWall)
			timed(untraced, &plain)
		}
		setUps(false)
	}
	setUps(true)
	return plain, tracedWall
}

// finishTrace reports the per-layer medians, 0 for a layer the
// workload does not exercise, and the tracing overhead. Values in
// whole, measured over the run rather than per pass, replace the
// medians.
func finishTrace(res *result, traced []layers, whole layers, plainWall, tracedWall []float64, overheadNote string) {
	med := medianLayers(traced)
	for k, v := range whole {
		med[k] = v
	}
	med["trace.overhead"] = median(tracedWall) / median(plainWall)
	for _, d := range perLayer {
		res.Metrics[d.Name] = med[d.Name]
		note := layerNotes[d.Name]
		if d.Name == "trace.overhead" {
			note = fmt.Sprintf("%s, %d pairs", overheadNote, len(traced))
		}
		res.report(d.Name, med[d.Name], d.Unit, note)
	}
}
