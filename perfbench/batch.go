package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/gctab"
	"repro/internal/vmachine"
)

const (
	// batchGenerated is how many difftest programs one batch pass
	// compiles and runs, besides the paper kernels. It is large enough
	// that pass totals vary little from seed to seed.
	batchGenerated = 200
	// taklIters sizes the Takl loop kernel (about 4.5 ms per iteration).
	taklIters = 4
)

// frozen are expected outputs fixed in this file rather than computed
// by any configuration of the program; each agrees with the
// unoptimised conservative-collector run and, where one exists, with
// the program's closed form.
var frozen = map[string]string{
	"typereg":        "39 361 39 6479\n",
	"FieldList":      "2520 5190 946305782\n",
	"takl":           "6\n",
	"destroy":        "21845\n", // (4^8-1)/3 nodes: replacing subtrees keeps the tree complete
	"subarray-walk":  "10030\n20437 3880\n",
	"with-mover":     "20879\n1179 20927\n",
	"interior-chase": "305\n51 30\n",
}

// program is one named source; its reference output is kept apart,
// by name.
type program struct {
	name, src string
}

// batchPrograms draws the batch corpus for seed: batchGenerated
// difftest programs (WITH, SUBARRAY and derived pointers at varied
// sizes) plus the paper kernels, in a seeded order.
func batchPrograms(seed int64) []program {
	r := newRNG(seed)
	progs := []program{
		{"typereg", bench.TyperegSource},
		{"FieldList", bench.FieldListSource},
		{"takl", bench.TaklLoopSource(taklIters)},
	}
	for i := 0; i < batchGenerated; i++ {
		s := int64(r.next() >> 1)
		progs = append(progs, program{fmt.Sprintf("gen-%d", s), difftest.Generate(s)})
	}
	for i := len(progs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		progs[i], progs[j] = progs[j], progs[i]
	}
	return progs
}

// oracleOutput runs src as the difftest oracle does: unoptimised,
// switch dispatch, conservative collector — none of it the
// configuration under test.
func oracleOutput(name, src string) (string, error) {
	c, err := driver.Compile(name, src, driver.Options{GCSupport: true, Scheme: gctab.DeltaPP})
	if err != nil {
		return "", err
	}
	var out strings.Builder
	m, _, err := c.NewConservativeMachine(vmachine.Config{HeapWords: 1 << 16, StackWords: 1 << 14, MaxThreads: 1, Out: &out})
	if err != nil {
		return "", err
	}
	if err := m.Run(50_000_000); err != nil {
		return "", fmt.Errorf("oracle run of %s: %w", name, err)
	}
	return out.String(), nil
}

// runBatch is the mthree CLI shape: every job compiles one program and
// runs it to completion at the default 2^20-word heap.
func runBatch(cfg config) (*result, error) {
	opts, err := defaultOptions(false)
	if err != nil {
		return nil, err
	}
	res := newResult("batch")
	su, progs, refs, err := newSetup(cfg, func() ([]program, map[string]string, error) {
		progs := batchPrograms(cfg.Seed)
		refs := map[string]string{}
		for _, p := range progs {
			if want, ok := frozen[p.name]; ok {
				refs[p.name] = want
				continue
			}
			want, err := oracleOutput(p.name, p.src)
			if err != nil {
				return nil, nil, err
			}
			refs[p.name] = want
		}
		// Warm-up: one job of each kernel.
		for _, name := range []string{"typereg", "FieldList"} {
			if _, err := driver.Run(name, bench.Sources()[name], opts, vmachine.Config{}); err != nil {
				return nil, nil, err
			}
		}
		return progs, refs, nil
	}, func([]program) {})
	if err != nil {
		return nil, err
	}

	// seen holds each job's first observation; every later pass, traced
	// or not, must repeat it exactly.
	seen := make([]*observation, len(progs))
	agree := func(i int, o observation, traced bool) {
		if seen[i] == nil {
			seen[i] = &o
			return
		}
		if o != *seen[i] {
			res.fail("%s: traced=%v pass observed %d gcs, %d words copied, compile %+v; first pass %d, %d, %+v",
				progs[i].name, traced, o.gcs, o.wordsCopied, o.compile, seen[i].gcs, seen[i].wordsCopied, seen[i].compile)
		}
	}

	var compileS, runS, latMs, pauseUs []float64
	var codeBytes, tableBytes float64
	untraced := func() {
		var comp, rn time.Duration
		var code, tbl int
		for i, p := range progs {
			settle()
			t0 := time.Now()
			c, err := driver.Compile(p.name, p.src, opts)
			t1 := time.Now()
			if err != nil {
				res.check(false, "%s: compile: %v", p.name, err)
				continue
			}
			e, err := execute(c, vmachine.DefaultConfig(), false)
			t2 := time.Now()
			comp += t1.Sub(t0)
			rn += t2.Sub(t1)
			latMs = append(latMs, millis(t2.Sub(t0)))
			code += c.Prog.CodeSize()
			tbl += c.Encoded.Size()
			if err != nil {
				res.check(false, "%s: run: %v", p.name, err)
				continue
			}
			res.check(e.out == refs[p.name], "%s: output %q, reference %q", p.name, clip(e.out), clip(refs[p.name]))
			for _, d := range e.pauses {
				pauseUs = append(pauseUs, float64(d)/1e3)
			}
			agree(i, e.observe(fingerprint(c)), false)
		}
		compileS = append(compileS, seconds(comp))
		runS = append(runS, seconds(rn))
		if codeBytes != 0 && (codeBytes != float64(code) || tableBytes != float64(tbl)) {
			res.fail("code/table bytes changed between passes: %d/%d, first %v/%v", code, tbl, codeBytes, tableBytes)
		}
		codeBytes, tableBytes = float64(code), float64(tbl)
	}

	var traced []layers
	tracedPass := func() {
		l := layers{}
		h0 := readHost()
		for i, p := range progs {
			settle()
			c, cl, err := stagedCompile(p.name, p.src, opts)
			if err != nil {
				res.check(false, "%s: staged compile: %v", p.name, err)
				continue
			}
			cl.add(l)
			e, err := execute(c, vmachine.DefaultConfig(), true)
			if err != nil {
				res.check(false, "%s: traced run: %v", p.name, err)
				continue
			}
			e.addLayers(l)
			res.check(e.out == refs[p.name], "%s: traced output %q, reference %q", p.name, clip(e.out), clip(refs[p.name]))
			agree(i, e.observe(fingerprint(c)), true)
		}
		hostDelta(l, h0, readHost())
		finishPass(l)
		traced = append(traced, l)
	}

	again := func() {
		if err := su.again(); err != nil {
			res.fail("%v", err)
		}
	}
	plainWall, tracedWall := passes(cfg, again, untraced, tracedPass)
	if cfg.Trace {
		sums := make([]float64, len(traced))
		for i, l := range traced {
			sums[i] = stagedSum(l)
		}
		whole := layers{"compile.other_s": median(compileS) - median(sums)}
		finishTrace(res, traced, whole, plainWall, tracedWall, "median traced pass over median untraced pass")
		return res, nil
	}
	n := len(compileS)
	setupS := su.seconds()
	res.Metrics["setup_s"] = setupS
	res.Metrics["compile_s"] = median(compileS)
	res.Metrics["run_s"] = median(runS)
	res.Metrics["code_bytes"] = codeBytes
	res.Metrics["table_bytes"] = tableBytes
	res.Metrics["latency_p50_ms"] = quantile(latMs, 0.5)
	res.Metrics["latency_p99_ms"] = quantile(latMs, 0.99)
	res.Metrics["peak_rss_mb"] = peakRSSMB()

	jobs := fmt.Sprintf("%d passes of %d jobs", n, len(progs))
	res.report("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups spread over the run (corpus, oracle runs, warm-up)", len(su.times)))
	res.report("compile_s", res.Metrics["compile_s"], "s", "median per pass, "+jobs)
	res.report("run_s", res.Metrics["run_s"], "s", "median per pass, "+jobs)
	res.report("code_bytes", codeBytes, "bytes", "per pass, repeats exactly")
	res.report("table_bytes", tableBytes, "bytes", "per pass, repeats exactly")
	res.report("req_p50_ms", res.Metrics["latency_p50_ms"], "ms", fmt.Sprintf("per job (compile + run), n=%d", len(latMs)))
	res.report("req_p99_ms", res.Metrics["latency_p99_ms"], "ms", fmt.Sprintf("per job (compile + run), n=%d", len(latMs)))
	reportPauses(res, pauseUs)
	res.report("max_rps", 0, "req/s", "n/a: jobs run one at a time")
	reportFailFrac(res)
	res.report("peak_rss_mb", res.Metrics["peak_rss_mb"], "MB", "VmHWM")
	return res, nil
}

// reportPauses prints the collection pause quantiles with their sample
// count.
func reportPauses(res *result, us []float64) {
	note := fmt.Sprintf("per Collect call, n=%d", len(us))
	res.report("pause_p50_us", quantile(us, 0.5), "us", note)
	res.report("pause_p99_us", quantile(us, 0.99), "us", note)
}

func reportFailFrac(res *result) {
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	res.report("fail_frac", frac, "fraction", fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted))
}

// clip bounds an output quoted in a failure message.
func clip(s string) string {
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}
