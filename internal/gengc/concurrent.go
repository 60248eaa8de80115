// Mostly-concurrent major collections for the generational collector.
//
// Minor collections stay stop-the-world: their pause is bounded by the
// (deliberately small) nursery. The expensive pause is the escalation
// to a major cycle — a full copy of both generations — and that is the
// one this file splits, on the same gc.MarkCycle the full collector
// uses:
//
//	initial pause   snapshot precise roots + remembered slots, arm the
//	                SATB and black-allocation hooks
//	concurrent mark bounded bursts at scheduler pass boundaries, over
//	                nursery and old space together
//	final pause     bursts drain the mark, then copy every marked
//	                object into the other old semispace (the exact
//	                stop-the-world major layout: ascending from-address
//	                order), flip, reset the nursery, clear the
//	                remembered set
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
	"time"

	"repro/internal/gc"
	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// ShouldStartCycle implements vmachine.ConcurrentCollector: only the
// escalation to a major collection runs concurrently; a pending minor
// returns false and Collect handles it synchronously.
func (c *Collector) ShouldStartCycle() bool {
	return c.Concurrent && c.Heap.mustEscalate()
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// pause of a concurrent major. Must run at a safepoint.
func (c *Collector) StartCycle(m *vmachine.Machine) error {
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	c.Heap.pendingOld = false
	telStart := c.begin(m, telemetry.GCMajor)
	frames, walkTime, err := c.walk(m, false)
	if err != nil {
		return err
	}
	// The bitmap must cover every address a black allocation can claim
	// before the flip: the whole nursery and the current old semispace.
	// Seeding the remembered slots duplicates work (every remembered
	// value is also reachable by scanning its old-space holder), but it
	// keeps the barrier invariant locally checkable.
	if c.cyc, err = gc.StartMarkCycle(m, c.majorSpace(c.Heap.Hi), c.rootsWithRemset(m, frames)); err != nil {
		return err
	}
	if c.Tel != nil {
		c.Tel.Emit(telemetry.EvStackWalk, gc.CurThread(m), int64(walkTime), int64(len(frames)), 0, 0)
		c.mFrames.Add(int64(len(frames)))
		c.hWalk.Observe(int64(walkTime))
		c.hPause.Observe(c.Tel.Now() - telStart)
	}
	return nil
}

// MarkStep implements vmachine.ConcurrentCollector: one bounded mark
// burst over both generations.
func (c *Collector) MarkStep(*vmachine.Machine) (bool, error) {
	if c.cyc == nil || c.cyc.Idle() {
		return true, nil
	}
	t0 := time.Now()
	done := c.cyc.Step(c.MarkBudget)
	burst := time.Since(t0)
	c.ConcMarkTime += burst
	if c.Tel != nil {
		c.hConcMark.Observe(int64(burst))
		c.hPause.Observe(int64(burst))
	}
	return done, nil
}

// FinishCycle implements vmachine.ConcurrentCollector: the final pause
// of a concurrent major, once MarkStep has reported done — copy every
// marked object into the other old semispace with the canonical major
// layout, flip, reset.
func (c *Collector) FinishCycle(m *vmachine.Machine) error {
	if c.cyc == nil {
		return nil
	}
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	var telStart int64
	if c.Tel != nil {
		telStart = c.Tel.Now()
	}
	frames, walkTime, err := c.walk(m, true)
	if err != nil {
		return err
	}
	st, err := c.cyc.Finish(m, c.rootsWithRemset(m, frames), c.TraceWorkers)
	c.SATBLogged += c.cyc.Logged
	c.cyc = nil
	if err != nil {
		return err
	}
	c.flipMajor(st)
	gc.RederiveAllN(m, frames, c.TraceWorkers)
	c.Cycles++
	c.end(m, telStart, frames, walkTime, st, true)
	c.FinalPauseTime += time.Since(start)
	return nil
}
