package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/vmachine"
)

const (
	// deepRounds is how many deep-stack collections DeepWalkSource
	// makes per run: more than all other collect programs together, so
	// the median pause is a deep-stack one.
	deepRounds = 400
	// serveRequests is the size of each pass's closed-loop round of
	// server requests.
	serveRequests = 200
	// compileRepeats is how many compiles of a fixed program set one
	// timing sample averages, and how often a traced set-up repeats the
	// staged compile.
	compileRepeats = 10
)

// collectPrograms returns the GC-bound programs for seed with their
// references: DeepWalkSource (deep stack, tiny live set: walk, decode
// and fixed per-collection cost), destroy with forced collections
// (large tree-shaped live heap: mark, assign, copy, fixup) and the
// three difftest derived-pointer kernels (adjust and re-derive). The
// seed picks the recursion depth and the number of subtree
// replacements.
func collectPrograms(seed int64) ([]program, map[string]string) {
	r := newRNG(seed)
	depth := 200 + r.intn(32)
	iters := 28 + r.intn(8)
	progs := []program{
		{"deepwalk", bench.DeepWalkSource(depth, deepRounds)},
		{"destroy", bench.DestroySource(4, 7, iters, 2, 500)},
	}
	refs := map[string]string{
		"deepwalk": bench.DeepWalkWant(depth, deepRounds),
		"destroy":  frozen["destroy"],
	}
	for _, k := range difftest.Kernels() {
		progs = append(progs, program{k.Name, k.Source})
		refs[k.Name] = frozen[k.Name]
	}
	return progs, refs
}

// compiledSet is a fixed program set compiled once at set-up.
type compiledSet struct {
	progs    []program
	compiled []*driver.Compiled
	ids      []compileID
	// staged holds the per-stage compile layers (traced runs only).
	staged layers
}

// compileSet compiles progs with driver.Compile. A traced run then
// compiles the set compileRepeats times more, each time with
// driver.Compile and stage by stage, checks that both agree and keeps
// each stage's median and compile.other_s.
func compileSet(progs []program, opts driver.Options, traced bool) (*compiledSet, error) {
	cs := &compiledSet{progs: progs, compiled: make([]*driver.Compiled, len(progs)), ids: make([]compileID, len(progs))}
	for i, p := range progs {
		c, err := driver.Compile(p.name, p.src, opts)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		cs.compiled[i], cs.ids[i] = c, fingerprint(c)
	}
	if !traced {
		return cs, nil
	}
	var stagedPasses []layers
	var walls, sums []float64
	for rep := 0; rep < compileRepeats; rep++ {
		t := time.Now()
		for _, p := range progs {
			if _, err := driver.Compile(p.name, p.src, opts); err != nil {
				return nil, fmt.Errorf("compile %s: %w", p.name, err)
			}
		}
		walls = append(walls, seconds(time.Since(t)))
		l := layers{}
		for i, p := range progs {
			c, cl, err := stagedCompile(p.name, p.src, opts)
			if err != nil {
				return nil, fmt.Errorf("staged compile %s: %w", p.name, err)
			}
			if id := fingerprint(c); id != cs.ids[i] {
				return nil, fmt.Errorf("staged compile of %s differs from driver.Compile: %+v vs %+v", p.name, id, cs.ids[i])
			}
			cl.add(l)
		}
		stagedPasses = append(stagedPasses, l)
		sums = append(sums, stagedSum(l))
	}
	cs.staged = medianLayers(stagedPasses)
	cs.staged["compile.other_s"] = median(walls) - median(sums)
	return cs, nil
}

// runCollect runs GC-bound programs compiled once at set-up, each to
// completion at the default heap, timing every Collect call as one
// pause; then a closed-loop round of requests to an in-process
// gcserve.Server, whose tenants collect in thousands of small heaps.
// A traced run ends with one open-loop segment against the server,
// outside the timed passes, for the load generator's own rows.
func runCollect(cfg config) (*result, error) {
	opts, err := defaultOptions(false)
	if err != nil {
		return nil, err
	}
	serveOpts, err := defaultOptions(true)
	if err != nil {
		return nil, err
	}
	res := newResult("collect")
	// A set-up is the compiled programs and a started, warmed-up
	// server.
	type state struct {
		cs *compiledSet
		st *server
	}
	su, s, refs, err := newSetup(cfg, func() (state, map[string]string, error) {
		progs, refs := collectPrograms(cfg.Seed)
		cs, err := compileSet(progs, opts, cfg.Trace)
		if err != nil {
			return state{}, nil, err
		}
		// Warm-up: the derived-pointer kernels once each.
		for i := 2; i < len(progs); i++ {
			if _, err := execute(cs.compiled[i], vmachine.DefaultConfig(), false); err != nil {
				return state{}, nil, err
			}
		}
		st, serveRefs, err := startServer(cfg.Seed, serveOpts, cfg.Trace)
		if err != nil {
			return state{}, nil, err
		}
		refs["session"] = serveRefs["session"]
		return state{cs, st}, refs, nil
	}, func(s state) { s.st.srv.Close() })
	if err != nil {
		return nil, err
	}
	cs, st := s.cs, s.st
	defer st.srv.Close()
	st.want = refs["session"]
	kinds := mixedKinds(newRNG(cfg.Seed^0xC0), serveRequests)

	// serveRound sends the round's requests and returns its wall time.
	var reqMs []float64
	serveRound := func(traced bool, l layers) time.Duration {
		qs, d := closedLoop(st, kinds, traced)
		for _, q := range qs {
			st.account(res, q)
			if !traced {
				reqMs = append(reqMs, millis(q.latency))
			}
		}
		if traced {
			serveLayers(l, qs)
		}
		return d
	}

	seen := make([]*observation, len(cs.progs))
	runPass := func(traced bool, l layers) (time.Duration, []float64) {
		var wall time.Duration
		var pauses []float64
		for i, p := range cs.progs {
			settle()
			e, err := execute(cs.compiled[i], vmachine.DefaultConfig(), traced)
			if err != nil {
				res.check(false, "%s: traced=%v run: %v", p.name, traced, err)
				continue
			}
			wall += e.wall
			for _, d := range e.pauses {
				pauses = append(pauses, millis(d))
			}
			if traced {
				e.addLayers(l)
			}
			res.check(e.out == refs[p.name], "%s: traced=%v output %q, reference %q", p.name, traced, clip(e.out), clip(refs[p.name]))
			o := e.observe(cs.ids[i])
			if seen[i] == nil {
				seen[i] = &o
			} else if o != *seen[i] {
				res.fail("%s: traced=%v pass observed %d gcs, %d words copied; first pass %d, %d",
					p.name, traced, o.gcs, o.wordsCopied, seen[i].gcs, seen[i].wordsCopied)
			}
		}
		return wall, pauses
	}

	var compileS, runS, tracedRunS, pauseMs []float64
	var traced []layers
	untracedPass := func() {
		t := time.Now()
		for i := 0; i < compileRepeats; i++ {
			for _, p := range cs.progs {
				if _, err := driver.Compile(p.name, p.src, opts); err != nil {
					res.check(false, "%s: compile: %v", p.name, err)
				}
			}
		}
		compileS = append(compileS, seconds(time.Since(t))/compileRepeats)
		wall, pauses := runPass(false, nil)
		wall += serveRound(false, nil)
		runS = append(runS, seconds(wall))
		pauseMs = append(pauseMs, pauses...)
	}
	tracedPass := func() {
		l := layers{}
		for _, staged := range []layers{cs.staged, st.cs.staged} {
			for k, v := range staged {
				l[k] += v
			}
		}
		h0 := readHost()
		wall, _ := runPass(true, l)
		wall += serveRound(true, l)
		hostDelta(l, h0, readHost())
		finishPass(l)
		traced = append(traced, l)
		tracedRunS = append(tracedRunS, seconds(wall))
	}
	again := func() {
		if err := su.again(); err != nil {
			res.fail("%v", err)
		}
	}
	passes(cfg, again, untracedPass, tracedPass)
	if cfg.Trace {
		qs, inflight := openLoop(st, openRate, openSegment, newRNG(cfg.Seed^0x5EED), true)
		for _, q := range qs {
			st.account(res, q)
		}
		whole := layers{}
		loadLayers(whole, qs, inflight)
		finishTrace(res, traced, whole, runS, tracedRunS, "median traced over median untraced run time (runs and requests)")
		return res, nil
	}

	var code, tbl float64
	for _, c := range append(cs.compiled, st.cs.compiled...) {
		code += float64(c.Prog.CodeSize())
		tbl += float64(c.Encoded.Size())
	}
	setupS := su.seconds()
	res.Metrics["setup_s"] = setupS
	res.Metrics["compile_s"] = median(compileS)
	res.Metrics["run_s"] = median(runS)
	res.Metrics["code_bytes"] = code
	res.Metrics["table_bytes"] = tbl
	res.Metrics["latency_p50_ms"] = quantile(pauseMs, 0.5)
	res.Metrics["latency_p99_ms"] = quantile(pauseMs, 0.99)
	res.Metrics["peak_rss_mb"] = peakRSSMB()

	res.report("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups spread over the run (compiles, server start, warm-up)", len(su.times)))
	res.report("compile_s", res.Metrics["compile_s"], "s", fmt.Sprintf("median per pass of compiling the %d programs (mean of %d), %d passes", len(cs.progs), compileRepeats, len(compileS)))
	res.report("run_s", res.Metrics["run_s"], "s", fmt.Sprintf("median per pass of the %d runs and %d server requests, %d passes", len(cs.progs), serveRequests, len(runS)))
	res.report("code_bytes", code, "bytes", "")
	res.report("table_bytes", tbl, "bytes", "")
	us := make([]float64, len(pauseMs))
	for i, v := range pauseMs {
		us[i] = v * 1e3
	}
	reportPauses(res, us)
	note := fmt.Sprintf("per server request, closed loop of %d clients, timed from send, n=%d", 2*runtime.NumCPU(), len(reqMs))
	res.report("req_p50_ms", quantile(reqMs, 0.5), "ms", note)
	res.report("req_p99_ms", quantile(reqMs, 0.99), "ms", note)
	res.report("max_rps", 0, "req/s", "n/a: no open-loop rate ladder")
	reportFailFrac(res)
	res.report("peak_rss_mb", res.Metrics["peak_rss_mb"], "MB", "VmHWM")
	return res, nil
}
