// Package gc implements the paper's precise, fully compacting copying
// collector. It locates every root in globals, thread stacks, and
// registers using the compiler-emitted tables, reconstructs register
// contents of suspended frames from callee-save maps, and updates
// derived values with the two-phase adjust/re-derive protocol of §3:
//
//	phase 1 (before moving), callee frames first, derived values
//	before their bases:     E = a − Σ sign·base
//	phase 2 (after moving), exactly the reverse order:
//	                        a = E + Σ sign·base′
//
// The frame-walking, register-reconstruction, and derived-value pieces
// are exported (walk.go) and shared with the generational collector.
package gc

import (
	"fmt"
	"time"

	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// Mode selects what Collect does (the §6.3 timing methodology: one run
// with collection being a stack trace, one with a null call).
type Mode int

// Collection modes.
const (
	ModeFull      Mode = iota // trace, copy, compact
	ModeTraceOnly             // walk stacks and decode tables only
	ModeNull                  // do nothing (timing baseline)
)

// Collector is the precise compacting collector.
type Collector struct {
	Heap  *heap.Heap
	Dec   gctab.TableDecoder
	Mode  Mode
	Debug bool // verify roots and heap invariants

	// WalkWorkers bounds the stack-walk worker pool (0 =
	// DefaultWalkWorkers, 1 = serial). The walk result is deterministic
	// at any width.
	WalkWorkers int

	// TraceWorkers bounds the collection worker pool that marks,
	// copies, and patches the heap (trace.go): 0 = DefaultTraceWorkers,
	// 1 = serial. Placement is canonical (allocation-order assignment),
	// so the resulting heap is bitwise identical at any width.
	TraceWorkers int

	// Concurrent enables mostly-concurrent marking (concurrent.go):
	// collections split into an initial root-scan pause, incremental
	// mark bursts interleaved with mutator execution, and a short final
	// pause that runs only assign/copy/fixup. Requires barriered stores
	// in the program (codegen Options.Generational or Options.Barriers).
	Concurrent bool
	// MarkBudget bounds the gray objects scanned per mark burst
	// (0 = DefaultMarkBudget). Smaller budgets mean shorter bursts and
	// more of them.
	MarkBudget int

	// Statistics.
	Collections    int64
	FramesTraced   int64
	StackTraceTime time.Duration
	TotalTime      time.Duration
	WordsCopied    int64
	ObjectsCopied  int64
	Steals         int64 // successful mark-deque steals
	MarkTime       time.Duration
	AssignTime     time.Duration
	CopyTime       time.Duration
	FixupTime      time.Duration
	// Concurrent-mode statistics.
	Cycles         int64 // completed concurrent cycles
	SATBLogged     int64 // old values the write barrier claimed
	ConcMarkTime   time.Duration
	FinalPauseTime time.Duration

	// cyc is the in-flight concurrent cycle, nil outside one.
	cyc *MarkCycle

	// marks is the recycled mark bitmap (one allocation per collector,
	// not per collection).
	marks *heap.MarkSet

	// Tel, when non-nil, receives per-cycle events and metrics; every
	// probe below is guarded by a nil check so a collector without
	// telemetry pays one branch and zero allocations.
	Tel *telemetry.Tracer

	mCollections *telemetry.Counter
	mFrames      *telemetry.Counter
	mCopied      *telemetry.Counter
	mObjects     *telemetry.Counter
	mSteals      *telemetry.Counter
	mAdjusted    *telemetry.Counter
	mRederived   *telemetry.Counter
	hPause       *telemetry.Histogram
	hWalk        *telemetry.Histogram
	hMark        *telemetry.Histogram
	hAssign      *telemetry.Histogram
	hCopy        *telemetry.Histogram
	hFixup       *telemetry.Histogram
	hConcMark    *telemetry.Histogram
	hFinal       *telemetry.Histogram
	gAllocBytes  *telemetry.Gauge
	gLiveBytes   *telemetry.Gauge
	gLiveObjects *telemetry.Gauge
	gCollections *telemetry.Gauge
}

// New creates a collector over h using the encoded tables, decoded on
// every lookup (the paper's §6.3 cost model). NewWith picks the
// decoder.
func New(h *heap.Heap, enc *gctab.Encoded) *Collector {
	return NewWith(h, gctab.NewDecoder(enc))
}

// NewWith creates a collector over h walking stacks through dec —
// typically a gctab.CachedDecoder when amortizing decode cost, or a
// plain gctab.Decoder to reproduce the paper's numbers.
func NewWith(h *heap.Heap, dec gctab.TableDecoder) *Collector {
	return &Collector{Heap: h, Dec: dec}
}

// SetTracer attaches telemetry to the collector and its table decoder,
// resolving the metric handles once so cycle probes are map-free.
func (c *Collector) SetTracer(t *telemetry.Tracer) {
	c.Tel = t
	c.Dec.SetTracer(t)
	if t == nil {
		c.mCollections, c.mFrames, c.mCopied, c.mAdjusted, c.mRederived = nil, nil, nil, nil, nil
		c.mObjects, c.mSteals = nil, nil
		c.hPause, c.hWalk = nil, nil
		c.hMark, c.hAssign, c.hCopy, c.hFixup = nil, nil, nil, nil
		c.hConcMark, c.hFinal = nil, nil
		c.gAllocBytes, c.gLiveBytes, c.gLiveObjects, c.gCollections = nil, nil, nil, nil
		return
	}
	c.mCollections = t.Counter(telemetry.CtrGCCollections)
	c.mFrames = t.Counter(telemetry.CtrGCFramesWalked)
	c.mCopied = t.Counter(telemetry.CtrGCBytesCopied)
	c.mObjects = t.Counter(telemetry.CtrGCObjectsCopied)
	c.mSteals = t.Counter(telemetry.CtrGCMarkSteals)
	c.mAdjusted = t.Counter(telemetry.CtrGCDerivedAdjusted)
	c.mRederived = t.Counter(telemetry.CtrGCDerivedRederive)
	c.hPause = t.Histogram(telemetry.HistGCPauseNs)
	c.hWalk = t.Histogram(telemetry.HistGCStackWalkNs)
	c.hMark = t.Histogram(telemetry.HistGCMarkNs)
	c.hAssign = t.Histogram(telemetry.HistGCAssignNs)
	c.hCopy = t.Histogram(telemetry.HistGCCopyNs)
	c.hFixup = t.Histogram(telemetry.HistGCFixupNs)
	c.hConcMark = t.Histogram(telemetry.HistGCConcMarkNs)
	c.hFinal = t.Histogram(telemetry.HistGCFinalPauseNs)
	c.gAllocBytes = t.Gauge(telemetry.GaugeHeapAllocBytes)
	c.gLiveBytes = t.Gauge(telemetry.GaugeHeapLiveBytes)
	c.gLiveObjects = t.Gauge(telemetry.GaugeHeapLiveObjects)
	c.gCollections = t.Gauge(telemetry.GaugeHeapCollections)
}

// gcKind maps a collection mode to its telemetry cycle kind.
func gcKind(mode Mode) int64 {
	switch mode {
	case ModeTraceOnly:
		return telemetry.GCTraceOnly
	case ModeNull:
		return telemetry.GCNull
	}
	return telemetry.GCFull
}

// CurThread identifies the thread a collection runs on behalf of (-1
// when none is current).
func CurThread(m *vmachine.Machine) int32 {
	if m.Cur != nil {
		return int32(m.Cur.ID)
	}
	return -1
}

// CountDerivs totals the derivation entries across walked frames — the
// derived values adjusted in phase 1 and re-derived in phase 2.
func CountDerivs(frames []*Frame) int64 {
	var n int64
	for _, f := range frames {
		n += int64(len(f.View.Derivs))
	}
	return n
}

// Collect implements vmachine.Collector. With Concurrent set, a direct
// call runs a whole concurrent cycle back-to-back (RunCycle), or
// finishes the one in flight; the multi-threaded scheduler instead
// drives StartCycle/MarkStep/FinishCycle itself and never calls
// Collect for them.
func (c *Collector) Collect(m *vmachine.Machine) error {
	if c.cyc != nil || c.ShouldStartCycle() {
		return RunCycle(c, m, c.cyc == nil)
	}
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	if c.Mode == ModeNull {
		return nil
	}
	c.Collections++
	telStart := c.begin(m, gcKind(c.Mode))
	frames, walkTime, err := c.walk(m, true)
	if err != nil {
		return err
	}
	var st TraceStats
	if c.Mode == ModeFull {
		// Evacuate every live object through the deterministic
		// trace-copy engine (trace.go); identical at every width.
		h := c.Heap
		sp := c.space(h.Alloc)
		if c.Debug {
			sp.Check = func(v int64) error {
				if !h.Contains(v) {
					return fmt.Errorf("gc: root %d outside the heap", v)
				}
				return nil
			}
		}
		if st, err = TraceCopy(CollectRoots(m, frames), sp, c.TraceWorkers); err != nil {
			return err
		}
		if err := c.flip(st); err != nil {
			return err
		}
	}
	RederiveAllN(m, frames, c.TraceWorkers)
	c.end(m, telStart, frames, walkTime, st)
	return nil
}

// begin emits a collection's begin event and returns its telemetry
// start time (0 without telemetry).
func (c *Collector) begin(m *vmachine.Machine, kind int64) int64 {
	if c.Tel == nil {
		return 0
	}
	t := c.Tel.Now()
	h := c.Heap
	c.Tel.Emit(telemetry.EvGCBegin, CurThread(m), kind, h.LiveBytes(), h.AllocatedBytes(), h.Collections)
	return t
}

// walk walks every thread's stack and, when adjust is set, runs phase
// 1 of the derived-value protocol: pauses that move objects adjust,
// the concurrent initial pause only reads the roots. It returns the
// frames and the time both took.
func (c *Collector) walk(m *vmachine.Machine, adjust bool) ([]*Frame, time.Duration, error) {
	t0 := time.Now()
	frames, err := WalkMachineN(m, c.Dec, c.WalkWorkers)
	if err != nil {
		return nil, 0, err
	}
	c.FramesTraced += int64(len(frames))
	if adjust {
		if err := AdjustDerivedN(m, frames, c.TraceWorkers); err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(t0)
	c.StackTraceTime += d
	return frames, d, nil
}

// space describes a collection of from-space [FromLo, hi) to the
// trace engine, with the recycled mark bitmap reset to cover it.
func (c *Collector) space(hi int64) CopySpace {
	h := c.Heap
	if c.marks == nil {
		c.marks = heap.NewMarkSet(h.FromLo, hi)
	} else {
		c.marks.Reset(h.FromLo, hi)
	}
	return CopySpace{
		Mem:        h.Mem,
		SpanLo:     h.FromLo,
		SpanHi:     hi,
		InFrom:     h.Contains,
		SizeOf:     h.SizeOf,
		PtrOffsets: h.PointerOffsets,
		Copy:       h.CopyObjectSized,
		ToBase:     h.BeginCollection(),
		Marks:      c.marks,
	}
}

// flip records a finished copy in the statistics and makes the copy
// space the allocation space.
func (c *Collector) flip(st TraceStats) error {
	h := c.Heap
	c.WordsCopied += st.Words
	c.ObjectsCopied += st.Objects
	c.Steals += st.Steals
	c.MarkTime += st.Mark
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	h.AddCopied(st.Objects)
	h.FinishCollection(st.Next)
	if c.Debug {
		return h.Check()
	}
	return nil
}

// end emits a collection's closing events and metrics. A moving pause
// — a stop-the-world collection or a concurrent final pause — also
// feeds the phase and final-pause histograms, so concurrent-vs-STW SLO
// comparisons read one histogram. A concurrent final pause marks
// nothing (its bursts ran before it, Mark 0) and adds no mark-time
// sample.
func (c *Collector) end(m *vmachine.Machine, telStart int64, frames []*Frame, walkTime time.Duration, st TraceStats) {
	if c.Tel == nil {
		return
	}
	tid := CurThread(m)
	nDeriv := CountDerivs(frames)
	copiedBytes := st.Words * heap.WordBytes
	c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), int64(len(frames)), 0, 0)
	c.Tel.Emit(telemetry.EvGCEnd, tid, copiedBytes, int64(len(frames)), nDeriv, nDeriv)
	c.mCollections.Add(1)
	c.mFrames.Add(int64(len(frames)))
	c.mCopied.Add(copiedBytes)
	c.mObjects.Add(st.Objects)
	c.mSteals.Add(st.Steals)
	c.mAdjusted.Add(nDeriv)
	c.mRederived.Add(nDeriv)
	c.hWalk.Observe(int64(walkTime))
	pause := c.Tel.Now() - telStart
	if c.Mode == ModeFull {
		if st.Mark > 0 {
			c.hMark.Observe(int64(st.Mark))
		}
		c.hAssign.Observe(int64(st.Assign))
		c.hCopy.Observe(int64(st.Copy))
		c.hFixup.Observe(int64(st.Fixup))
		c.hFinal.Observe(pause)
	}
	c.hPause.Observe(pause)
	c.gAllocBytes.Set(c.Heap.AllocatedBytes())
	c.gLiveBytes.Set(c.Heap.LiveBytes())
	c.gLiveObjects.Set(c.Heap.LiveObjects)
	c.gCollections.Set(c.Heap.Collections)
}
