package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// pauseTimer wraps a machine's collector and times every Collect call
// as one pause. Embedding keeps the collector's optional
// concurrent-cycle methods visible to the machine, so collections are
// scheduled exactly as without the wrapper.
type pauseTimer struct {
	*gc.Collector
	pauses []time.Duration
}

func (p *pauseTimer) Collect(m *vmachine.Machine) error {
	t := time.Now()
	err := p.Collector.Collect(m)
	p.pauses = append(p.pauses, time.Since(t))
	return err
}

// decodeTimer wraps a collector's table decoder and counts every
// Decode call. It times the first decodeExact calls, which include the
// cache misses that build each procedure's tables, and after them one
// call in decodeSample: most later calls are memoized hits that
// cost about as much as a pair of clock reads, so timing each would
// mostly measure the clock. Forks handed to parallel stack walkers
// share the counters.
type decodeTimer struct {
	dec gctab.TableDecoder
	c   *decodeCounts
}

const (
	decodeExact  = 64
	decodeSample = 64
)

type decodeCounts struct {
	n, exactNs, sampled, sampledNs atomic.Int64
}

func newDecodeTimer(dec gctab.TableDecoder) decodeTimer {
	return decodeTimer{dec: dec, c: new(decodeCounts)}
}

func (d decodeTimer) Decode(pc int) (*gctab.PointView, error) {
	i := d.c.n.Add(1)
	if i > decodeExact && (i-decodeExact)%decodeSample != 1 {
		return d.dec.Decode(pc)
	}
	t := time.Now()
	v, err := d.dec.Decode(pc)
	ns := int64(time.Since(t))
	if i <= decodeExact {
		d.c.exactNs.Add(ns)
	} else {
		d.c.sampledNs.Add(ns)
		d.c.sampled.Add(1)
	}
	return v, err
}

// seconds is the time in the first decodeExact calls plus the later
// calls' time estimated from the sampled ones.
func (d decodeTimer) seconds() float64 {
	ns := float64(d.c.exactNs.Load())
	if k := d.c.sampled.Load(); k > 0 {
		ns += float64(d.c.sampledNs.Load()) * float64(d.c.n.Load()-decodeExact) / float64(k)
	}
	return ns / 1e9
}

func (d decodeTimer) SetTracer(t *telemetry.Tracer) { d.dec.SetTracer(t) }

func (d decodeTimer) Fork() gctab.TableDecoder {
	return decodeTimer{dec: d.dec.Fork(), c: d.c}
}

// observation is what must repeat exactly between passes, and between
// the untraced and the traced run, for one program.
type observation struct {
	out         string
	gcs         int64
	wordsCopied int64
	compile     compileID
}

// compileID fingerprints a compile's VM code and encoded gc tables.
type compileID struct {
	hash               uint64
	codeBytes, tblSize int
}

func fingerprint(c *driver.Compiled) compileID {
	h := fnv.New64a()
	h.Write(c.Prog.CodeBytes)
	h.Write(c.Encoded.Bytes)
	for _, ix := range c.Encoded.Index {
		fmt.Fprintf(h, "%d,%d,%d;", ix.Entry, ix.End, ix.Off)
	}
	return compileID{hash: h.Sum64(), codeBytes: c.Prog.CodeSize(), tblSize: c.Encoded.Size()}
}

// execution is one program run to completion.
type execution struct {
	out    string
	wall   time.Duration
	m      *vmachine.Machine
	col    *gc.Collector
	pauses []time.Duration
	// dec is set on traced executions.
	dec *decodeTimer
}

// execute instantiates c under the precise collector and runs it to
// completion, timing every collection. A traced execution also walks
// stacks through a decodeTimer over the same memoizing decoder the
// driver would build.
func execute(c *driver.Compiled, cfg vmachine.Config, traced bool) (*execution, error) {
	var out strings.Builder
	cfg.Out = &out
	e := &execution{}
	var err error
	if traced {
		dt := newDecodeTimer(gctab.NewCachedDecoder(c.Encoded))
		e.dec = &dt
		e.m, e.col, err = c.NewMachineWithDecoder(cfg, dt)
	} else {
		e.m, e.col, err = c.NewMachine(cfg)
	}
	if err != nil {
		return nil, err
	}
	pt := &pauseTimer{Collector: e.col}
	e.m.Collector = pt
	t := time.Now()
	err = e.m.Run(0)
	e.wall = time.Since(t)
	e.out = out.String()
	e.pauses = pt.pauses
	return e, err
}

func (e *execution) observe(id compileID) observation {
	return observation{out: e.out, gcs: e.m.GCCount, wordsCopied: e.col.WordsCopied, compile: id}
}

func (e *execution) collectTime() time.Duration {
	var d time.Duration
	for _, p := range e.pauses {
		d += p
	}
	return d
}

// addLayers folds a traced execution's runtime layers into a pass.
func (e *execution) addLayers(l layers) {
	col := e.col
	collect := e.collectTime()
	phases := col.StackTraceTime + col.MarkTime + col.AssignTime + col.CopyTime + col.FixupTime
	l["vmachine.mutator_s"] += seconds(e.wall - collect)
	l["vmachine.steps"] += float64(e.m.Steps)
	l["heap.alloc_words"] += float64(col.Heap.AllocatedWords)
	l["gc.walk_s"] += seconds(col.StackTraceTime)
	l["gc.frames"] += float64(col.FramesTraced)
	l["gctab.decodes"] += float64(e.dec.c.n.Load())
	l["gctab.decode_s"] += e.dec.seconds()
	l["gc.mark_s"] += seconds(col.MarkTime)
	l["gc.assign_s"] += seconds(col.AssignTime)
	l["gc.copy_s"] += seconds(col.CopyTime)
	l["gc.fixup_s"] += seconds(col.FixupTime)
	l["gc.words_copied"] += float64(col.WordsCopied)
	l["gc.objects_copied"] += float64(col.ObjectsCopied)
	l["gc.steals"] += float64(col.Steals)
	l["gc.collections"] += float64(e.m.GCCount)
	l["gc.collect_s"] += seconds(collect)
	l["gc.other_s"] += seconds(collect - phases)
}

// finishPass derives the per-step mutator cost once a pass's sums are
// in.
func finishPass(l layers) {
	if l["vmachine.steps"] > 0 {
		l["vmachine.ns_per_step"] = l["vmachine.mutator_s"] * 1e9 / l["vmachine.steps"]
	}
}
