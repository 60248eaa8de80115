// Package gengc implements the generational extension the paper points
// at: the "accurate scavenging scheme" of the UMass garbage collector
// toolkit [15], using the very same compiler-emitted tables. The heap
// is split into a nursery and an old space; compiler-emitted store
// checks (the §6.2 "store checks" that generational schemes perform,
// OpStB) record old→young pointer stores in a remembered set, so a
// minor collection scans only the nursery's roots:
//
//	minor: precise roots (tables) + remembered slots; every surviving
//	       young object is promoted into the old space, the nursery is
//	       reset, and the remembered set is cleared (full promotion —
//	       no young object survives a minor collection unpromoted).
//	major: a full semispace copy of everything live (old and young)
//	       when the old space fills.
//
// Derived values get the same two-phase adjust/re-derive treatment as
// in the full collector — minor collections move objects too.
package gengc

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// Heap is the two-generation heap. Region layout:
//
//	[Lo, nurseryEnd)                  nursery (bump)
//	[nurseryEnd, nurseryEnd+oldSemi)  old space A
//	[nurseryEnd+oldSemi, Hi)          old space B
type Heap struct {
	Mem   []int64
	Lo    int64
	Hi    int64
	Descs *types.DescTable

	nurseryEnd int64
	oldSemi    int64

	nurseryAlloc int64
	oldFrom      int64 // base of the current old space
	oldTo        int64 // base of the copy target old space
	oldAlloc     int64
	// pendingOld is set when a direct old-space allocation failed; the
	// next collection escalates to a major one to make room.
	pendingOld bool

	// Statistics.
	NurseryAllocated int64
	OldAllocated     int64
}

// NewHeap splits the region: an eighth for the nursery (nurseries are
// small — survivors are few and promotion must always fit in the old
// space), the rest into two old semispaces.
func NewHeap(mem []int64, lo, hi int64, descs *types.DescTable) *Heap {
	total := hi - lo
	nursery := total / 8
	oldSemi := (total - nursery) / 2
	h := &Heap{
		Mem: mem, Lo: lo, Hi: hi, Descs: descs,
		nurseryEnd: lo + nursery,
		oldSemi:    oldSemi,
	}
	h.nurseryAlloc = lo
	h.oldFrom = h.nurseryEnd
	h.oldTo = h.nurseryEnd + oldSemi
	h.oldAlloc = h.oldFrom
	return h
}

// InNursery reports whether addr is a young object address.
func (h *Heap) InNursery(addr int64) bool {
	return addr >= h.Lo && addr < h.nurseryAlloc
}

// InOld reports whether addr lies in the current old space.
func (h *Heap) InOld(addr int64) bool {
	return addr >= h.oldFrom && addr < h.oldAlloc
}

// Contains reports whether addr is a plausible live object address.
func (h *Heap) Contains(addr int64) bool {
	return h.InNursery(addr) || h.InOld(addr)
}

func (h *Heap) sizeFor(descID int, n int64) (int64, bool) {
	d := h.Descs.Get(descID)
	if d.Kind == types.DescOpenArray {
		if n < 0 {
			return 0, false
		}
		return 2 + n*d.ElemWords, true
	}
	return 1 + d.DataWords, true
}

// SizeOf returns the total word size of the object at addr.
func (h *Heap) SizeOf(addr int64) int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	if d.Kind == types.DescOpenArray {
		return 2 + h.Mem[addr+1]*d.ElemWords
	}
	return 1 + d.DataWords
}

// TryAlloc implements vmachine.Allocator: bump allocation in the
// nursery; objects larger than half the nursery go directly to the old
// space (pretenuring).
func (h *Heap) TryAlloc(descID int, n int64) (int64, bool) {
	size, ok := h.sizeFor(descID, n)
	if !ok {
		return 0, false
	}
	if size > (h.nurseryEnd-h.Lo)/2 {
		return h.allocOld(descID, n, size)
	}
	if h.nurseryAlloc+size > h.nurseryEnd {
		return 0, false
	}
	addr := h.nurseryAlloc
	h.nurseryAlloc += size
	h.NurseryAllocated += size
	h.initObject(addr, descID, n)
	return addr, true
}

func (h *Heap) allocOld(descID int, n, size int64) (int64, bool) {
	if h.oldAlloc+size > h.oldFrom+h.oldSemi {
		h.pendingOld = true
		return 0, false
	}
	addr := h.oldAlloc
	h.oldAlloc += size
	h.OldAllocated += size
	h.initObject(addr, descID, n)
	return addr, true
}

func (h *Heap) initObject(addr int64, descID int, n int64) {
	h.Mem[addr] = int64(descID)
	if h.Descs.Get(descID).Kind == types.DescOpenArray {
		h.Mem[addr+1] = n
	}
}

// copyObjectSized is the range-copy primitive handed to the parallel
// trace-copy engine: workers own disjoint objects and destination
// ranges, so no shared state is touched.
func (h *Heap) copyObjectSized(addr, to, size int64) {
	copy(h.Mem[to:to+size], h.Mem[addr:addr+size])
	h.Mem[addr] = -(to + 1)
}

// resetNursery zeroes and empties the nursery after a collection.
func (h *Heap) resetNursery() {
	clear(h.Mem[h.Lo:h.nurseryAlloc])
	h.nurseryAlloc = h.Lo
}

// flipOld makes the copy target, filled up to next, the old space. The
// old space being vacated becomes the next copy target; it was written
// only below its pre-flip oldAlloc, so clearing that much restores the
// invariant every old-space allocation relies on: the copy target is
// all zero, and so is the old space above oldAlloc.
func (h *Heap) flipOld(next int64) {
	clear(h.Mem[h.oldFrom:h.oldAlloc])
	h.oldFrom, h.oldTo = h.oldTo, h.oldFrom
	h.oldAlloc = next
}

// PointerOffsets appends the pointer-field offsets of the object at
// addr.
func (h *Heap) PointerOffsets(addr int64, out []int64) []int64 {
	d := h.Descs.Get(int(h.Mem[addr]))
	switch d.Kind {
	case types.DescOpenArray:
		n := h.Mem[addr+1]
		for i := int64(0); i < n; i++ {
			base := 2 + i*d.ElemWords
			for _, off := range d.ElemPtrOffsets {
				out = append(out, base+off)
			}
		}
	default:
		for _, off := range d.PtrOffsets {
			out = append(out, 1+off)
		}
	}
	return out
}

// Collector is the generational collector. It implements
// vmachine.Collector; install its Barrier on the machine.
type Collector struct {
	Heap  *Heap
	Dec   gctab.TableDecoder
	Debug bool

	// WalkWorkers bounds the stack-walk worker pool (0 =
	// gc.DefaultWalkWorkers, 1 = serial).
	WalkWorkers int

	// TraceWorkers bounds the parallel trace-copy pool used by both
	// minor (promotion) and major (old-space copy) collections (0 =
	// gc.DefaultTraceWorkers, 1 = serial). Placement is canonical, so
	// the heap is bitwise identical at any width.
	TraceWorkers int

	// Concurrent enables mostly-concurrent marking for major cycles
	// (concurrent.go): the escalation that would run a stop-the-world
	// major instead starts an incremental mark with the SATB barrier
	// armed, keeping only the copy/flip in the final pause. Minor
	// collections stay stop-the-world — a nursery scan is already
	// bounded by the (small) nursery size.
	Concurrent bool
	// MarkBudget bounds the gray objects scanned per mark burst
	// (0 = gc.DefaultMarkBudget).
	MarkBudget int

	remset map[int64]bool // old-space slot addresses holding young pointers

	// marks is the recycled mark bitmap shared by minor and major
	// cycles.
	marks *heap.MarkSet

	// cyc is the in-flight concurrent major cycle, nil outside one.
	cyc *gc.MarkCycle

	// Statistics.
	Minor          int64
	Major          int64
	BarrierHits    int64 // barriered stores that recorded a remembered slot
	BarrierChecks  int64 // barriered stores executed (the store-check cost)
	PromotedWords  int64
	MajorCopied    int64
	ObjectsCopied  int64
	Steals         int64
	RemsetPeak     int
	Cycles         int64 // completed concurrent major cycles
	SATBLogged     int64 // old values the write barrier claimed
	TotalTime      time.Duration
	StackTraceTime time.Duration
	MarkTime       time.Duration
	AssignTime     time.Duration
	CopyTime       time.Duration
	FixupTime      time.Duration
	ConcMarkTime   time.Duration
	FinalPauseTime time.Duration

	// Tel, when non-nil, receives per-cycle events and metrics. The
	// barrier itself stays probe-free (it runs on every barriered
	// store); its cumulative counts are published as gauges per cycle.
	Tel *telemetry.Tracer

	mCollections *telemetry.Counter
	mMinor       *telemetry.Counter
	mMajor       *telemetry.Counter
	mFrames      *telemetry.Counter
	mCopied      *telemetry.Counter
	mObjects     *telemetry.Counter
	mSteals      *telemetry.Counter
	mPromoted    *telemetry.Counter
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
	gBarChecks   *telemetry.Gauge
	gBarHits     *telemetry.Gauge
	gRemset      *telemetry.Gauge
}

// New creates a generational collector over h, decoding tables on
// every lookup; NewWith picks the decoder.
func New(h *Heap, enc *gctab.Encoded) *Collector {
	return NewWith(h, gctab.NewDecoder(enc))
}

// NewWith creates a generational collector over h walking stacks
// through dec (e.g. a shared gctab.CachedDecoder).
func NewWith(h *Heap, dec gctab.TableDecoder) *Collector {
	return &Collector{Heap: h, Dec: dec, remset: make(map[int64]bool)}
}

// SetTracer attaches telemetry to the collector and its table decoder.
func (c *Collector) SetTracer(t *telemetry.Tracer) {
	c.Tel = t
	c.Dec.SetTracer(t)
	if t == nil {
		c.mCollections, c.mMinor, c.mMajor, c.mFrames = nil, nil, nil, nil
		c.mCopied, c.mPromoted, c.mAdjusted, c.mRederived = nil, nil, nil, nil
		c.mObjects, c.mSteals = nil, nil
		c.hPause, c.hWalk = nil, nil
		c.hMark, c.hAssign, c.hCopy, c.hFixup = nil, nil, nil, nil
		c.hConcMark, c.hFinal = nil, nil
		c.gAllocBytes, c.gLiveBytes, c.gBarChecks, c.gBarHits, c.gRemset = nil, nil, nil, nil, nil
		return
	}
	c.mCollections = t.Counter(telemetry.CtrGCCollections)
	c.mMinor = t.Counter(telemetry.CtrGenMinor)
	c.mMajor = t.Counter(telemetry.CtrGenMajor)
	c.mFrames = t.Counter(telemetry.CtrGCFramesWalked)
	c.mCopied = t.Counter(telemetry.CtrGCBytesCopied)
	c.mObjects = t.Counter(telemetry.CtrGCObjectsCopied)
	c.mSteals = t.Counter(telemetry.CtrGCMarkSteals)
	c.mPromoted = t.Counter(telemetry.CtrGenPromotedBytes)
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
	c.gBarChecks = t.Gauge(telemetry.GaugeGenBarrierChecks)
	c.gBarHits = t.Gauge(telemetry.GaugeGenBarrierHits)
	c.gRemset = t.Gauge(telemetry.GaugeGenRemset)
}

// Barrier is the store check: record old-space slots that receive young
// pointers.
func (c *Collector) Barrier(slot, val int64) {
	c.BarrierChecks++
	if c.Heap.InNursery(val) && !c.Heap.InNursery(slot) && slot >= c.Heap.nurseryEnd && slot < c.Heap.Hi {
		c.remset[slot] = true
		c.BarrierHits++
	}
}

// RemsetSize reports how many old-space slots the remembered set
// currently tracks. It peaks between collections: a minor collection
// promotes every young survivor, so the set is cleared afterwards.
func (c *Collector) RemsetSize() int { return len(c.remset) }

// Collect implements vmachine.Collector: a minor collection,
// escalating to a major one when the old space cannot absorb the
// survivors. With Concurrent set, an escalation called directly runs a
// whole concurrent major back-to-back (gc.RunCycle), or finishes the
// one in flight; the multi-threaded scheduler drives the split phases
// itself through the ConcurrentCollector protocol and never reaches
// this path for them.
func (c *Collector) Collect(m *vmachine.Machine) error {
	if c.cyc != nil || c.ShouldStartCycle() {
		return gc.RunCycle(c, m, c.cyc == nil)
	}
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	h := c.Heap
	// Decided before the stack walk: the escalation test only reads
	// allocation state.
	major := h.mustEscalate()
	kind := telemetry.GCMinor
	if major {
		kind = telemetry.GCMajor
	}
	telStart := c.begin(m, kind)
	frames, walkTime, err := c.walk(m, true)
	if err != nil {
		return err
	}
	roots := c.rootsWithRemset(m, frames)
	var st gc.TraceStats
	if major {
		h.pendingOld = false
		sp := c.majorSpace(h.oldAlloc)
		if c.Debug {
			sp.Check = func(v int64) error {
				if !h.Contains(v) {
					return fmt.Errorf("gengc: root %d outside the heap", v)
				}
				return nil
			}
		}
		if st, err = gc.TraceCopy(roots, sp, c.TraceWorkers); err != nil {
			return err
		}
		c.flipMajor(st)
	} else if st, err = c.minor(roots); err != nil {
		return err
	}
	gc.RederiveAllN(m, frames, c.TraceWorkers)
	c.end(m, telStart, frames, walkTime, st, major)
	return nil
}

// mustEscalate reports whether the next collection must be a major
// one: a minor collection promotes every young survivor, so the old
// space must be able to absorb the whole nursery, and a failed direct
// old-space allocation escalates too.
func (h *Heap) mustEscalate() bool {
	return h.pendingOld || h.oldFrom+h.oldSemi-h.oldAlloc < h.nurseryAlloc-h.Lo
}

// begin notes the remembered set's peak, emits a collection's begin
// event and returns its telemetry start time (0 without telemetry).
func (c *Collector) begin(m *vmachine.Machine, kind int64) int64 {
	if len(c.remset) > c.RemsetPeak {
		c.RemsetPeak = len(c.remset)
	}
	if c.Tel == nil {
		return 0
	}
	t := c.Tel.Now()
	h := c.Heap
	c.gRemset.Set(int64(len(c.remset)))
	c.Tel.Emit(telemetry.EvGCBegin, gc.CurThread(m), kind, h.LiveBytes(), h.AllocatedBytes(), c.Minor+c.Major)
	return t
}

// walk walks every thread's stack and, when adjust is set, runs phase
// 1 of the derived-value protocol (the concurrent initial pause only
// reads the roots). It returns the frames and the time both took.
func (c *Collector) walk(m *vmachine.Machine, adjust bool) ([]*gc.Frame, time.Duration, error) {
	t0 := time.Now()
	frames, err := gc.WalkMachineN(m, c.Dec, c.WalkWorkers)
	if err != nil {
		return nil, 0, err
	}
	if adjust {
		if err := gc.AdjustDerivedN(m, frames, c.TraceWorkers); err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(t0)
	c.StackTraceTime += d
	return frames, d, nil
}

// end folds a collection's engine stats into the collector's and emits
// its closing events and metrics. A stop-the-world collection's "final
// pause" is its whole pause (see telemetry.HistGCFinalPauseNs). A
// concurrent final pause marks nothing (its bursts ran before it,
// Mark 0) and adds no mark-time sample.
func (c *Collector) end(m *vmachine.Machine, telStart int64, frames []*gc.Frame, walkTime time.Duration, st gc.TraceStats, major bool) {
	c.ObjectsCopied += st.Objects
	c.Steals += st.Steals
	c.MarkTime += st.Mark
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	if c.Tel == nil {
		return
	}
	h := c.Heap
	tid := gc.CurThread(m)
	nDeriv := gc.CountDerivs(frames)
	movedBytes := st.Words * heap.WordBytes
	c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), int64(len(frames)), 0, 0)
	c.Tel.Emit(telemetry.EvGCEnd, tid, movedBytes, int64(len(frames)), nDeriv, nDeriv)
	c.mCollections.Add(1)
	if major {
		c.mMajor.Add(1)
	} else {
		c.mMinor.Add(1)
		c.mPromoted.Add(movedBytes)
	}
	c.mFrames.Add(int64(len(frames)))
	c.mCopied.Add(movedBytes)
	c.mObjects.Add(st.Objects)
	c.mSteals.Add(st.Steals)
	c.mAdjusted.Add(nDeriv)
	c.mRederived.Add(nDeriv)
	c.hWalk.Observe(int64(walkTime))
	if st.Mark > 0 {
		c.hMark.Observe(int64(st.Mark))
	}
	c.hAssign.Observe(int64(st.Assign))
	c.hCopy.Observe(int64(st.Copy))
	c.hFixup.Observe(int64(st.Fixup))
	pause := c.Tel.Now() - telStart
	c.hPause.Observe(pause)
	c.hFinal.Observe(pause)
	c.gAllocBytes.Set(h.AllocatedBytes())
	c.gLiveBytes.Set(h.LiveBytes())
	c.gBarChecks.Set(c.BarrierChecks)
	c.gBarHits.Set(c.BarrierHits)
}

// rootsWithRemset is the minor collection's root list: the precise
// roots plus the remembered old-space slots, the latter in address
// order so the list itself is deterministic.
func (c *Collector) rootsWithRemset(m *vmachine.Machine, frames []*gc.Frame) []*int64 {
	roots := gc.CollectRoots(m, frames)
	slots := make([]int64, 0, len(c.remset))
	for slot := range c.remset {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	for _, slot := range slots {
		roots = append(roots, &m.Mem[slot])
	}
	return roots
}

// resetMarks recycles the mark bitmap for a new cycle over [lo, hi).
func (c *Collector) resetMarks(lo, hi int64) *heap.MarkSet {
	if c.marks == nil {
		c.marks = heap.NewMarkSet(lo, hi)
	} else {
		c.marks.Reset(lo, hi)
	}
	return c.marks
}

// minor promotes all live young objects into the old space through the
// deterministic trace-copy engine: reachable nursery objects are
// marked from the precise roots and the remembered slots, assigned
// old-space addresses in nursery allocation order, then copied and
// patched by the worker pool. Old objects do not move; old→young
// references are covered by the remembered set (the store-barrier
// invariant), and every pointer into the nursery — remembered slot,
// stack root, or a field of a promoted copy — is forwarded in fixup.
func (c *Collector) minor(roots []*int64) (gc.TraceStats, error) {
	c.Minor++
	h := c.Heap
	sp := gc.CopySpace{
		Mem:        h.Mem,
		SpanLo:     h.Lo,
		SpanHi:     h.nurseryAlloc,
		InFrom:     h.InNursery,
		SizeOf:     h.SizeOf,
		PtrOffsets: h.PointerOffsets,
		Copy:       h.copyObjectSized,
		ToBase:     h.oldAlloc,
		ToLimit:    h.oldFrom + h.oldSemi,
		Marks:      c.resetMarks(h.Lo, h.nurseryAlloc),
	}
	st, err := gc.TraceCopy(roots, sp, c.TraceWorkers)
	if err != nil {
		return st, err
	}
	c.PromotedWords += st.Words
	h.oldAlloc = st.Next
	// Nothing young survives unpromoted: the remembered set is empty by
	// construction now.
	c.remset = make(map[int64]bool)
	h.resetNursery()
	return st, nil
}

// majorSpace describes a major collection to the trace engine: nursery
// and old space together, copied into the other old semispace with
// canonical placement — survivors land in ascending from-address order
// (nursery objects first, then the old space in its allocation order).
// The mark bitmap covers [Lo, hi).
func (c *Collector) majorSpace(hi int64) gc.CopySpace {
	h := c.Heap
	return gc.CopySpace{
		Mem:        h.Mem,
		SpanLo:     h.Lo,
		SpanHi:     hi,
		InFrom:     h.Contains,
		SizeOf:     h.SizeOf,
		PtrOffsets: h.PointerOffsets,
		Copy:       h.copyObjectSized,
		ToBase:     h.oldTo,
		ToLimit:    h.oldTo + h.oldSemi,
		Marks:      c.resetMarks(h.Lo, hi),
	}
}

// flipMajor counts a finished major copy and makes its target the old
// space, with the nursery reset.
func (c *Collector) flipMajor(st gc.TraceStats) {
	c.Major++
	c.MajorCopied += st.Words
	c.Heap.flipOld(st.Next)
	c.Heap.resetNursery()
	// The remembered set held old-FROM-space slot addresses, all of
	// which just moved; stale entries must not survive the compaction.
	// Clearing (rather than relocating) them is sound for the same
	// reason it is after a minor collection: the nursery was reset too,
	// so no old→young pointer exists anywhere — the set is rebuilt from
	// scratch by the store barrier. The minor→major→minor regression
	// test pins this.
	c.remset = make(map[int64]bool)
}

// LiveOldWords reports the words in use in the old space.
func (h *Heap) LiveOldWords() int64 { return h.oldAlloc - h.oldFrom }

// LiveBytes returns the bytes currently held by nursery and old-space
// objects together.
func (h *Heap) LiveBytes() int64 {
	return (h.nurseryAlloc - h.Lo + h.LiveOldWords()) * heap.WordBytes
}

// AllocatedBytes returns the cumulative bytes ever allocated in either
// generation.
func (h *Heap) AllocatedBytes() int64 {
	return (h.NurseryAllocated + h.OldAllocated) * heap.WordBytes
}
