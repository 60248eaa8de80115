// Mostly-concurrent major collections for the generational collector.
//
// Minor collections stay stop-the-world: their pause is bounded by the
// (deliberately small) nursery. The expensive pause is the escalation
// to a major cycle — a full copy of both generations — and that is the
// one this file splits, mirroring internal/gc/concurrent.go:
//
//	initial pause   snapshot precise roots + remembered slots, arm the
//	                SATB and black-allocation hooks
//	concurrent mark bounded bursts at scheduler pass boundaries, over
//	                nursery and old space together
//	final pause     drain the barrier buffer, then copy every marked
//	                object into the other old semispace (the exact
//	                major() layout: ascending from-address order),
//	                flip, reset the nursery, clear the remembered set
//
// The soundness argument is the same snapshot-at-the-beginning one;
// the only generational twist is that allocations during the cycle —
// nursery bumps and pretenured old-space allocations alike — are
// claimed black, so young objects born mid-cycle are promoted with
// everything else at the flip. The ordinary remembered-set Barrier
// keeps running off the same OpStB (storeBarriered invokes both
// hooks), so minor bookkeeping never misses a beat.
package gengc

import (
	"fmt"
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// concCycle is the state of one in-flight concurrent major cycle.
type concCycle struct {
	gray   []int64
	marked []int64
	satb   []int64
}

// ShouldStartCycle implements vmachine.ConcurrentCollector: only the
// escalation to a major collection runs concurrently; a pending minor
// returns false and Collect handles it synchronously.
func (c *Collector) ShouldStartCycle() bool {
	if !c.Concurrent {
		return false
	}
	h := c.Heap
	return h.pendingOld || h.oldFrom+h.oldSemi-h.oldAlloc < h.nurseryAlloc-h.Lo
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// pause of a concurrent major. Must run at a safepoint.
func (c *Collector) StartCycle(m *vmachine.Machine) error {
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	h := c.Heap
	h.pendingOld = false
	if len(c.remset) > c.RemsetPeak {
		c.RemsetPeak = len(c.remset)
	}
	var tid int32 = -1
	if m.Cur != nil {
		tid = int32(m.Cur.ID)
	}
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
		c.gRemset.Set(int64(len(c.remset)))
		c.Tel.Emit(telemetry.EvGCBegin, tid, telemetry.GCMajor,
			h.LiveBytes(), h.AllocatedBytes(), c.Minor+c.Major)
	}

	// The bitmap must cover every address a black allocation can claim
	// before the flip: the whole nursery and the current old semispace.
	c.resetMarks(h.Lo, h.Hi)

	traceStart := time.Now()
	frames, err := gc.WalkMachineN(m, c.Dec, c.WalkWorkers)
	if err != nil {
		return err
	}
	walkTime := time.Since(traceStart)
	c.StackTraceTime += walkTime

	// Seed the snapshot from the precise roots plus the remembered
	// slots (harmless duplication: every remembered value is also
	// reachable by scanning its old-space holder, but seeding it keeps
	// the barrier invariant locally checkable).
	cyc := &concCycle{}
	for _, p := range c.rootsWithRemset(m, frames) {
		v := *p
		if v != 0 && h.Contains(v) && c.marks.Claim(v) {
			cyc.marked = append(cyc.marked, v)
			cyc.gray = append(cyc.gray, v)
		}
	}
	c.cyc = cyc
	m.SATB = c.satbRecord
	m.AllocMark = c.blackAlloc

	if c.Tel != nil {
		c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), int64(len(frames)), 0, 0)
		c.mFrames.Add(int64(len(frames)))
		c.hWalk.Observe(int64(walkTime))
		c.hPause.Observe(c.Tel.Now() - telStart)
	}
	return nil
}

// satbRecord claims the overwritten old value of every barriered
// pointer store (claim-on-log; see internal/gc/concurrent.go).
func (c *Collector) satbRecord(old int64) {
	cyc := c.cyc
	if cyc == nil || old == 0 {
		return
	}
	if c.Heap.Contains(old) && c.marks.Claim(old) {
		c.SATBLogged++
		cyc.marked = append(cyc.marked, old)
		cyc.satb = append(cyc.satb, old)
	}
}

// blackAlloc claims objects allocated during the cycle — nursery bumps
// and pretenured old allocations alike — black, so they survive the
// flip without being scanned.
func (c *Collector) blackAlloc(addr int64) {
	cyc := c.cyc
	if cyc == nil {
		return
	}
	if c.marks.Claim(addr) {
		cyc.marked = append(cyc.marked, addr)
	}
}

// MarkStep implements vmachine.ConcurrentCollector: one bounded mark
// increment over both generations.
func (c *Collector) MarkStep(m *vmachine.Machine) (bool, error) {
	cyc := c.cyc
	if cyc == nil {
		return true, nil
	}
	if len(cyc.satb) > 0 {
		cyc.gray = append(cyc.gray, cyc.satb...)
		cyc.satb = cyc.satb[:0]
	}
	if len(cyc.gray) == 0 {
		return true, nil
	}
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
	}
	t0 := time.Now()
	budget := c.MarkBudget
	if budget <= 0 {
		budget = gc.DefaultMarkBudget
	}
	n := len(cyc.gray)
	if n > budget {
		n = budget
	}
	// Cap the remainder's capacity (full slice expression) so scanBatch's
	// appends reallocate instead of aliasing the unread batch tail —
	// tree-shaped graphs discover faster than the batch read cursor
	// advances, and an aliased append silently overwrites unscanned
	// entries (the same bug internal/gc/concurrent.go MarkStep had).
	keep := len(cyc.gray) - n
	batch := cyc.gray[keep:]
	cyc.gray = cyc.gray[:keep:keep]
	c.scanBatch(batch)
	c.ConcMarkTime += time.Since(t0)
	if c.Tel != nil {
		burst := c.Tel.Now() - telStart
		c.hConcMark.Observe(burst)
		c.hPause.Observe(burst)
	}
	return len(cyc.gray) == 0 && len(cyc.satb) == 0, nil
}

// scanBatch scans pointer fields serially (gengc heaps are modest; the
// full collector's pool-parallel variant is not worth the fan-out
// here), claiming and graying discoveries.
func (c *Collector) scanBatch(batch []int64) {
	h := c.Heap
	var offs []int64
	for _, a := range batch {
		offs = h.PointerOffsets(a, offs[:0])
		for _, off := range offs {
			v := h.Mem[a+off]
			if v != 0 && h.Contains(v) && c.marks.Claim(v) {
				c.cyc.marked = append(c.cyc.marked, v)
				c.cyc.gray = append(c.cyc.gray, v)
			}
		}
	}
}

// FinishCycle implements vmachine.ConcurrentCollector: the final pause
// of a concurrent major — drain, copy every marked object into the
// other old semispace with the canonical major() layout, flip, reset.
func (c *Collector) FinishCycle(m *vmachine.Machine) error {
	cyc := c.cyc
	if cyc == nil {
		return nil
	}
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	h := c.Heap
	var tid int32 = -1
	if m.Cur != nil {
		tid = int32(m.Cur.ID)
	}
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
	}

	for len(cyc.satb) > 0 || len(cyc.gray) > 0 {
		cyc.gray = append(cyc.gray, cyc.satb...)
		cyc.satb = cyc.satb[:0]
		batch := cyc.gray
		cyc.gray = nil
		c.scanBatch(batch)
	}

	traceStart := time.Now()
	frames, err := gc.WalkMachineN(m, c.Dec, c.WalkWorkers)
	if err != nil {
		return err
	}
	if err := gc.AdjustDerivedN(m, frames, c.TraceWorkers); err != nil {
		return err
	}
	walkTime := time.Since(traceStart)
	c.StackTraceTime += walkTime

	roots := c.rootsWithRemset(m, frames)
	for _, p := range roots {
		if v := *p; v != 0 && h.Contains(v) && !c.marks.Marked(v) {
			return fmt.Errorf("gengc: root %d unmarked at final pause (SATB invariant violated)", v)
		}
	}

	c.Major++
	inFrom := func(v int64) bool {
		return h.InNursery(v) || (v >= h.oldFrom && v < h.oldAlloc)
	}
	sp := gc.CopySpace{
		Mem:        h.Mem,
		SpanLo:     h.Lo,
		SpanHi:     h.Hi,
		InFrom:     inFrom,
		SizeOf:     h.SizeOf,
		PtrOffsets: h.PointerOffsets,
		Copy:       h.copyObjectSized,
		ToBase:     h.oldTo,
		ToLimit:    h.oldTo + h.oldSemi,
		Marks:      c.marks,
	}
	st, err := gc.FinishCopy([][]int64{cyc.marked}, roots, sp, c.TraceWorkers)
	if err != nil {
		return err
	}
	c.MajorCopied += st.Words
	c.ObjectsCopied += st.Objects
	c.AssignTime += st.Assign
	c.CopyTime += st.Copy
	c.FixupTime += st.Fixup
	h.flipOld(st.Next)
	h.resetNursery()
	// Same reasoning as major(): every old-from slot just moved and the
	// nursery is empty, so no old→young pointer exists; the set is
	// rebuilt from scratch by the store barrier.
	c.remset = make(map[int64]bool)
	gc.RederiveAllN(m, frames, c.TraceWorkers)

	m.SATB = nil
	m.AllocMark = nil
	c.cyc = nil
	c.Cycles++

	if c.Tel != nil {
		var nDeriv int64
		for _, f := range frames {
			nDeriv += int64(len(f.View.Derivs))
		}
		movedBytes := st.Words * heap.WordBytes
		c.Tel.Emit(telemetry.EvStackWalk, tid, int64(walkTime), int64(len(frames)), 0, 0)
		c.Tel.Emit(telemetry.EvGCEnd, tid, movedBytes, int64(len(frames)), nDeriv, nDeriv)
		c.mCollections.Add(1)
		c.mMajor.Add(1)
		c.mFrames.Add(int64(len(frames)))
		c.mCopied.Add(movedBytes)
		c.mObjects.Add(st.Objects)
		c.mAdjusted.Add(nDeriv)
		c.mRederived.Add(nDeriv)
		c.hWalk.Observe(int64(walkTime))
		c.hAssign.Observe(int64(st.Assign))
		c.hCopy.Observe(int64(st.Copy))
		c.hFixup.Observe(int64(st.Fixup))
		final := c.Tel.Now() - telStart
		c.hPause.Observe(final)
		c.hFinal.Observe(final)
		c.gAllocBytes.Set(h.AllocatedBytes())
		c.gLiveBytes.Set(h.LiveBytes())
		c.gBarChecks.Set(c.BarrierChecks)
		c.gBarHits.Set(c.BarrierHits)
	}
	c.FinalPauseTime += time.Since(start)
	return nil
}

// collectSplit runs a whole concurrent major back-to-back — the
// direct-Collect path (single-threaded machines, stress mode). With no
// mutator steps between phases it is bitwise identical to the
// stop-the-world major.
func (c *Collector) collectSplit(m *vmachine.Machine) error {
	if err := c.StartCycle(m); err != nil {
		return err
	}
	return c.finishActive(m)
}

// finishActive drains the active cycle's marking and finishes it.
func (c *Collector) finishActive(m *vmachine.Machine) error {
	for {
		done, err := c.MarkStep(m)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	return c.FinishCycle(m)
}
