package main

import (
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/driver"
	"repro/internal/gcserve"
	"repro/internal/gctab"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// defaultOptions returns the compile options a workload runs under —
// driver.NewOptions, or gcserve.DefaultOptions for served programs —
// and refuses a configuration that would silently benchmark the switch
// interpreter or the pay-per-lookup decoder.
func defaultOptions(served bool) (driver.Options, error) {
	opts := driver.NewOptions()
	if served {
		opts = gcserve.DefaultOptions()
	}
	if !opts.ThreadedDispatch || !opts.DecodeCache {
		return opts, fmt.Errorf("default options have ThreadedDispatch=%v DecodeCache=%v; the benchmark measures only the default configuration",
			opts.ThreadedDispatch, opts.DecodeCache)
	}
	if opts.Verify || opts.ConcurrentMark || opts.Generational {
		return opts, fmt.Errorf("default options enable Verify=%v ConcurrentMark=%v Generational=%v, which the staged compile and the pause timer do not model",
			opts.Verify, opts.ConcurrentMark, opts.Generational)
	}
	return opts, nil
}

// compileLayers is one staged compile's time per pass and its counts.
type compileLayers struct {
	parse, sem, irgen, opt, codegen, encode time.Duration

	irgenInstrs, optInstrs, codegenInstrs, gcPoints, derivs int64
}

// add folds c into a pass's layer values.
func (c *compileLayers) add(l layers) {
	l["parser.s"] += seconds(c.parse)
	l["sem.s"] += seconds(c.sem)
	l["irgen.s"] += seconds(c.irgen)
	l["opt.s"] += seconds(c.opt)
	l["codegen.s"] += seconds(c.codegen)
	l["gctab.encode_s"] += seconds(c.encode)
	l["irgen.instrs"] += float64(c.irgenInstrs)
	l["opt.instrs"] += float64(c.optInstrs)
	l["codegen.instrs"] += float64(c.codegenInstrs)
	l["gctab.gc_points"] += float64(c.gcPoints)
	l["gctab.derivs"] += float64(c.derivs)
}

// stagedSum is a pass's time in the six compile stages. Set against
// driver.Compile's wall time on the same programs, it leaves the
// compile time no stage claims: compile.other_s.
func stagedSum(l layers) float64 {
	return l["parser.s"] + l["sem.s"] + l["irgen.s"] + l["opt.s"] + l["codegen.s"] + l["gctab.encode_s"]
}

// stagedCompile runs driver.Compile's pipeline one public stage at a
// time — parser.Parse → sem.Check → irgen.Build → opt.Optimize →
// codegen.Generate → gctab.Encode — timing each call. Callers check
// that its fingerprint matches driver.Compile's, so the per-stage rows
// describe the pipeline the end-to-end numbers ran.
func stagedCompile(name, src string, opts driver.Options) (*driver.Compiled, compileLayers, error) {
	var cl compileLayers
	file := source.NewFile(name, src)
	errs := source.NewErrorList(file)

	t := time.Now()
	mod := parser.Parse(file, errs)
	cl.parse = time.Since(t)
	if err := errs.Err(); err != nil {
		return nil, cl, err
	}

	t = time.Now()
	prog := sem.Check(mod, errs)
	cl.sem = time.Since(t)
	if err := errs.Err(); err != nil {
		return nil, cl, err
	}

	t = time.Now()
	irp := irgen.Build(prog)
	cl.irgen = time.Since(t)
	cl.irgenInstrs = countInstrs(irp)

	level := 0
	if opts.Optimize {
		level = 1
	}
	t = time.Now()
	opt.Optimize(irp, opt.Options{
		Level:         level,
		GCSupport:     opts.GCSupport,
		PathSplitting: opts.PathSplitting,
		HeapLive:      opts.HeapLive,
	})
	cl.opt = time.Since(t)
	cl.optInstrs = countInstrs(irp)

	t = time.Now()
	vmProg, tables, err := codegen.Generate(irp, codegen.Options{
		GCSupport:     opts.GCSupport,
		Multithreaded: opts.Multithreaded,
		ElideNonAlloc: opts.ElideNonAlloc,
		Generational:  opts.Generational,
		Barriers:      opts.ConcurrentMark,
		HeapLive:      opts.HeapLive,
	})
	cl.codegen = time.Since(t)
	if err != nil {
		return nil, cl, err
	}
	cl.codegenInstrs = int64(len(vmProg.Code))
	if tables == nil {
		return nil, cl, fmt.Errorf("%s: compiled without gc tables", name)
	}

	t = time.Now()
	enc := gctab.Encode(tables, opts.Scheme)
	cl.encode = time.Since(t)

	c := &driver.Compiled{Opts: opts, IR: irp, Prog: vmProg, Tables: tables, Encoded: enc}
	for _, p := range tables.Procs {
		cl.gcPoints += int64(len(p.Points))
		for _, pt := range p.Points {
			cl.derivs += int64(len(pt.Derivs))
		}
	}
	return c, cl, nil
}

func countInstrs(p *ir.Program) int64 {
	var n int64
	for _, proc := range p.Procs {
		for _, b := range proc.Blocks {
			n += int64(len(b.Instrs))
		}
	}
	return n
}
