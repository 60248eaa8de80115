// Mostly-concurrent marking for the precise collectors.
//
// A concurrent cycle splits a collection into three parts driven by the
// vmachine scheduler through the vmachine.ConcurrentCollector protocol:
//
//	initial pause   StartCycle, at a §5.3 rendezvous: walk the stacks,
//	                seed the mark set from the root snapshot, arm the
//	                SATB write barrier and black-allocation hooks
//	concurrent mark MarkStep, once per completed scheduler pass while
//	                mutators run: scan a bounded batch of gray objects
//	                and fold in barrier-logged old values
//	final pause     vmachine.CompleteCycle, at a second rendezvous:
//	                MarkStep bursts drain what is left, then
//	                FinishCycle runs only the deterministic
//	                assign/copy/fixup tail
//
// MarkCycle is that cycle's marking, shared by this package's collector
// and gengc's concurrent majors; each collector supplies only its span,
// its roots, its flip and its telemetry.
//
// Soundness is the snapshot-at-the-beginning argument: every object
// reachable when the cycle began is retained, because (a) the roots
// are seeded eagerly at the initial pause, (b) every barriered pointer
// store logs — and immediately claims — the overwritten value, so no
// snapshot edge is ever silently deleted, and (c) every allocation
// during the cycle (bump fast path, slow path, text literals, and
// compile-time cell reuse) is black-allocated. Objects that die during
// the cycle float until the next one.
//
// Determinism: mutators are green threads on one scheduler goroutine,
// so mark bursts never race mutator writes, bursts are serial, and
// burst boundaries fall at scheduler pass boundaries, which are
// invariant under RunFuel slicing. When a cycle runs with no mutator
// steps between its phases — every single-threaded machine, including
// the whole difftest matrix — the marked set equals the stop-the-world
// reachable set and the canonical assign phase makes the resulting heap
// image bitwise identical to a stop-the-world collection.
package gc

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vmachine"
)

// DefaultMarkBudget is the number of gray objects one mark burst scans
// when the collector does not choose a budget (MarkBudget <= 0). A
// burst this size never reaches forkGray, so bursts always run on the
// scheduler's goroutine.
const DefaultMarkBudget = 512

// MarkCycle is one in-flight concurrent mark over a CopySpace whose
// Marks bitmap covers every address a black allocation can claim.
type MarkCycle struct {
	// w is the cycle's serial mark worker: w.gray holds claimed but
	// unscanned objects, w.marked counts every claim of the cycle, and
	// w.e.sp is the space being marked.
	w markWorker
	// satb buffers barrier-logged old values between mark steps. Each
	// entry was already claimed when logged (claim-on-log bounds the
	// buffer by the object count), so folding it into gray just
	// schedules its fields for scanning.
	satb []int64
	// Logged counts the old values the barrier claimed.
	Logged int64
}

// StartMarkCycle begins a cycle at the initial pause: it claims the
// objects the root slots reference and arms m's SATB and AllocMark
// hooks, which stay armed until Finish. Roots hold only tidy pointers
// or NIL (derived values live in Deriv entries, not the root set), so
// no adjustment is needed first.
func StartMarkCycle(m *vmachine.Machine, sp CopySpace, roots []*int64) (*MarkCycle, error) {
	gray, err := claimRoots(roots, sp)
	if err != nil {
		return nil, err
	}
	mc := &MarkCycle{w: markWorker{e: &markEngine{sp: sp}, gray: gray, marked: int64(len(gray))}}
	m.SATB = mc.logSATB
	m.AllocMark = mc.allocBlack
	return mc, nil
}

// logSATB is the machine's SATB hook: it receives the overwritten old
// value of every barriered pointer store. Claiming at log time both
// bounds the buffer (an object is logged at most once per cycle) and
// makes the snapshot invariant local: once a value is logged, no later
// store can lose it.
func (mc *MarkCycle) logSATB(old int64) {
	sp := &mc.w.e.sp
	if old != 0 && sp.InFrom(old) && sp.Marks.Claim(old) {
		mc.w.marked++
		mc.Logged++
		mc.satb = append(mc.satb, old)
	}
}

// allocBlack is the machine's AllocMark hook: objects allocated (or
// compile-time reused) during a cycle are claimed black — retained
// this cycle, never scanned. Their pointer fields start NIL and every
// later pointer store into them is barriered, so nothing is missed.
func (mc *MarkCycle) allocBlack(addr int64) {
	if mc.w.e.sp.Marks.Claim(addr) {
		mc.w.marked++
	}
}

// Idle reports whether no gray or barrier-logged object is waiting to
// be scanned.
func (mc *MarkCycle) Idle() bool {
	return len(mc.w.gray) == 0 && len(mc.satb) == 0
}

// Step is one bounded mark burst: it folds in the values the barrier
// logged since the last step, then scans up to budget gray objects
// (DefaultMarkBudget when budget <= 0). It reports whether marking is
// complete.
func (mc *MarkCycle) Step(budget int) (done bool) {
	w := &mc.w
	w.gray = append(w.gray, mc.satb...)
	mc.satb = mc.satb[:0]
	if budget <= 0 {
		budget = DefaultMarkBudget
	}
	// The batch is carved off the gray stack's tail, and scanning it
	// appends discoveries back onto w.gray — so the remainder must not
	// share capacity with the batch, or those appends would overwrite
	// unread batch entries mid-scan and silently drop their subtrees
	// (tree-shaped graphs discover faster than the batch read cursor
	// advances). The full slice expression forces append to reallocate.
	keep := max(len(w.gray)-budget, 0)
	batch := w.gray[keep:]
	w.gray = w.gray[:keep:keep]
	for _, a := range batch {
		w.scan(a)
	}
	return len(w.gray) == 0
}

// Finish completes the cycle at the final pause, given the root slots
// walked there: it disarms m's hooks, checks that marking is complete
// and the snapshot invariant holds, and copies the marked set. The
// caller has already run Step until it reported done, with no mutator
// step since (vmachine.CompleteCycle), so every barrier-logged value
// has been scanned. workers is the trace width (<= 0 means
// DefaultTraceWorkers).
func (mc *MarkCycle) Finish(m *vmachine.Machine, roots []*int64, workers int) (TraceStats, error) {
	m.SATB = nil
	m.AllocMark = nil
	sp := mc.w.e.sp
	if !mc.Idle() {
		return TraceStats{}, fmt.Errorf("gc: final pause with %d gray and %d logged objects unscanned",
			len(mc.w.gray), len(mc.satb))
	}
	// Every root value must be marked by now: reachable-at-start
	// objects were seeded or logged, later allocations claimed black.
	// An unmarked root here is a barrier bug, and proceeding would
	// patch the slot with garbage.
	for _, p := range roots {
		if v := *p; v != 0 && sp.InFrom(v) && !sp.Marks.Marked(v) {
			return TraceStats{}, fmt.Errorf("gc: root %d unmarked at final pause (SATB invariant violated)", v)
		}
	}
	return finishCopy(roots, sp, traceWidth(workers), mc.w.marked)
}

// RunCycle runs cc's concurrent cycle to completion with no mutator
// step between its phases, starting one first when start is set. A
// direct Collect uses it: single-threaded machines, stress mode,
// explicit collections with no other runnable thread, and a call that
// lands while a cycle is in flight. With zero mutator steps between
// phases the result is bitwise identical to a stop-the-world
// collection, so the difftest matrix exercises exactly the split-cycle
// code while pinning its results to the STW cells.
func RunCycle(cc vmachine.ConcurrentCollector, m *vmachine.Machine, start bool) error {
	if start {
		if err := cc.StartCycle(m); err != nil {
			return err
		}
	}
	return vmachine.CompleteCycle(cc, m)
}

// ShouldStartCycle implements vmachine.ConcurrentCollector: only full
// compacting collections run concurrently (the trace-only and null
// timing modes have no mark set to build incrementally).
func (c *Collector) ShouldStartCycle() bool {
	return c.Concurrent && c.Mode == ModeFull
}

// StartCycle implements vmachine.ConcurrentCollector: the initial
// root-scan pause. Must run at a safepoint (every live thread parked
// at a gc-point or the machine single-threaded inline path).
func (c *Collector) StartCycle(m *vmachine.Machine) error {
	start := time.Now()
	defer func() { c.TotalTime += time.Since(start) }()
	telStart := c.begin(m, telemetry.GCFull)
	frames, walkTime, err := c.walk(m, false)
	if err != nil {
		return err
	}
	// The mark bitmap spans the whole from-space quota, not just the
	// current allocation watermark: black allocations during the cycle
	// claim addresses past it.
	if c.cyc, err = StartMarkCycle(m, c.space(c.Heap.Limit), CollectRoots(m, frames)); err != nil {
		return err
	}
	if c.Tel != nil {
		c.Tel.Emit(telemetry.EvStackWalk, CurThread(m), int64(walkTime), int64(len(frames)), 0, 0)
		c.mFrames.Add(int64(len(frames)))
		c.hWalk.Observe(int64(walkTime))
		// The initial root scan stalls mutators, so it counts against
		// the pause distribution.
		c.hPause.Observe(c.Tel.Now() - telStart)
	}
	return nil
}

// MarkStep implements vmachine.ConcurrentCollector: one bounded mark
// burst. The scheduler calls it between passes, so no mutator runs
// concurrently.
func (c *Collector) MarkStep(*vmachine.Machine) (bool, error) {
	if c.cyc == nil || c.cyc.Idle() {
		return true, nil
	}
	t0 := time.Now()
	done := c.cyc.Step(c.MarkBudget)
	burst := time.Since(t0)
	c.ConcMarkTime += burst
	if c.Tel != nil {
		// A burst stalls mutators too (they are descheduled while it
		// runs), so it belongs in the pause distribution — that is the
		// point of bounding it.
		c.hConcMark.Observe(int64(burst))
		c.hPause.Observe(int64(burst))
	}
	return done, nil
}

// FinishCycle implements vmachine.ConcurrentCollector: the final
// pause, once MarkStep has reported done. Must run at a safepoint. It
// re-walks the stacks for fixup, adjusts derived values, checks the
// mark and copies the survivors.
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
	st, err := c.cyc.Finish(m, CollectRoots(m, frames), c.TraceWorkers)
	c.SATBLogged += c.cyc.Logged
	c.cyc = nil
	if err != nil {
		return err
	}
	if err := c.flip(st); err != nil {
		return err
	}
	RederiveAllN(m, frames, c.TraceWorkers)
	c.Collections++
	c.Cycles++
	c.end(m, telStart, frames, walkTime, st)
	c.FinalPauseTime += time.Since(start)
	return nil
}
