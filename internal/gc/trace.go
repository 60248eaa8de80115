// Deterministic parallel trace-and-copy engine.
//
// The serial collector's Cheney scan interleaves discovery and copying,
// so to-space layout depends on traversal order — unusable for a
// parallel collector that must stay bitwise reproducible. This engine
// splits a moving collection into four phases whose result depends only
// on the *set* of reachable objects, never on the order they were
// found:
//
//	mark    graph traversal that starts serially on the caller and
//	        forks helpers only once its gray stack is wide enough to
//	        pay for them; each worker keeps a private, lock-free gray
//	        stack and hands half of it to a shared pool only when
//	        another worker is starving; an atomic bitmap
//	        (heap.MarkSet) ensures each object is claimed exactly once
//	assign  the marked addresses are read back from the bitmap in
//	        ascending (= allocation) order and prefix sums of their
//	        sizes assign each object the exact to-space address a
//	        serial allocation-order compaction would choose
//	copy    workers copy disjoint address ranges and install
//	        forwarding words (disjoint objects → no shared writes);
//	        small plans run inline on the caller
//	fixup   workers rewrite the pointer fields of their to-space
//	        copies through the forwarding words; root slots are
//	        patched serially (they may alias across frames)
//
// Widths above GOMAXPROCS are clamped to it: workers that can never
// run at once only add hand-offs. A width that marks slower than
// width 1 is a bug; paperbench -parallel gates on it.
//
// Because placement is canonical, a collection at any worker count —
// including 1 — produces an identical heap image, identical forwarding
// decisions, and identical survivor counts. The full collector (gc.go),
// both generational collections (gengc) and the concurrent cycle's
// bursts and final copy (concurrent.go) are built on this one engine.
package gc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
)

// DefaultTraceWorkers bounds the collection worker pool when the
// caller does not pick a width (TraceWorkers <= 0). Mark and copy are
// CPU/memory-bound, so the machine's parallelism is the natural cap; a
// var so tests and tools can pin it.
var DefaultTraceWorkers = runtime.GOMAXPROCS(0)

// CopySpace describes one moving collection to the engine: the
// from-space being evacuated, the object-layout callbacks, and where
// the survivors go. All callbacks must be safe for concurrent readers
// (they are pure address arithmetic over Mem and the descriptor
// table).
type CopySpace struct {
	// Mem is the machine memory the spaces live in.
	Mem []int64
	// SpanLo/SpanHi bound every address InFrom can accept; the mark
	// bitmap covers [SpanLo, SpanHi).
	SpanLo, SpanHi int64
	// InFrom reports whether addr is a movable from-space object. It
	// must be a pure address-range test: it is consulted during fixup,
	// after from-space headers have been overwritten with forwarding
	// words.
	InFrom func(addr int64) bool
	// SizeOf returns the total word size of the object at addr (valid
	// only while its header is intact, i.e. before the copy phase).
	SizeOf func(addr int64) int64
	// PtrOffsets appends the pointer-field offsets of the object at
	// addr (valid on from-space objects before copy, and on to-space
	// copies afterwards).
	PtrOffsets func(addr int64, out []int64) []int64
	// Copy moves size words from a from-space object to its assigned
	// to-space address and installs the forwarding word -(to+1) in the
	// old header.
	Copy func(from, to, size int64)
	// ToBase is the first free to-space address.
	ToBase int64
	// ToLimit, when nonzero, bounds the to-space: if the survivors'
	// total footprint would run past it, the collection aborts with an
	// error before the copy phase touches memory. The semispace
	// collector never needs it (from- and to-space are the same size),
	// but the generational heap funnels nursery + old survivors into
	// one old semispace, which a large enough live set can overflow.
	ToLimit int64
	// Marks, when non-nil, is recycled instead of allocating a bitmap
	// per collection. It must already be Reset to [SpanLo, SpanHi).
	Marks *heap.MarkSet
	// Check, when non-nil, validates every traced pointer value
	// (roots and fields); a non-nil return aborts the collection.
	// Non-from-space values that pass Check are simply not traced.
	Check func(v int64) error
}

// TraceStats reports what one engine run did, phase by phase.
type TraceStats struct {
	Objects int64 // live objects marked and copied
	Words   int64 // words copied
	Next    int64 // next free to-space address after the copy
	Steals  int64 // successful deque steals during mark

	Mark, Assign, Copy, Fixup time.Duration
}

// TraceCopy runs one deterministic collection: everything reachable
// from the given root slots is marked, assigned a canonical to-space
// address, copied, and patched. roots are the addresses of the root
// slots themselves (duplicates and aliases are fine — marking claims
// each object once and root fixup is idempotent). workers <= 0 means
// DefaultTraceWorkers; 1 runs every phase inline on the caller's
// goroutine. The resulting heap image is bitwise identical at any
// width.
func TraceCopy(roots []*int64, sp CopySpace, workers int) (TraceStats, error) {
	workers = traceWidth(workers)
	if sp.Marks == nil {
		sp.Marks = heap.NewMarkSet(sp.SpanLo, sp.SpanHi)
	}

	t0 := time.Now()
	n, steals, err := markPhase(roots, sp, workers)
	mark := time.Since(t0)
	if err != nil {
		return TraceStats{Mark: mark, Steals: steals}, err
	}
	st, err := finishCopy(roots, sp, workers, n)
	st.Mark, st.Steals = mark, steals
	return st, err
}

// MarkOnly runs TraceCopy's mark phase alone: it reads the heap and
// fills sp.Marks (which must be non-nil and Reset to [SpanLo, SpanHi))
// but moves nothing, so one heap can be marked, and timed, any number
// of times. Only Objects, Mark and Steals are set in the returned
// stats.
func MarkOnly(roots []*int64, sp CopySpace, workers int) (TraceStats, error) {
	t0 := time.Now()
	n, steals, err := markPhase(roots, sp, traceWidth(workers))
	return TraceStats{Objects: n, Mark: time.Since(t0), Steals: steals}, err
}

// traceWidth resolves a requested worker count: <= 0 means
// DefaultTraceWorkers, and the result is at least 1.
func traceWidth(workers int) int {
	if workers <= 0 {
		workers = DefaultTraceWorkers
	}
	return max(workers, 1)
}

// finishCopy runs the deterministic tail of a collection — assign,
// copy, fixup — over the objects claimed in sp.Marks. TraceCopy calls
// it after its own mark phase, and MarkCycle.Finish once a concurrent
// mark's bursts have run out of work. The claim bitmap holds exactly
// the marked set, and reading it back in address order is the sort
// assign would otherwise do, at the cost per span word that clearing
// the bitmap already pays. n, the number of claimed objects, sizes the
// list. Mark/Steals in the returned stats are zero.
func finishCopy(roots []*int64, sp CopySpace, workers int, n int64) (TraceStats, error) {
	var st TraceStats
	t0 := time.Now()
	plan := assignPhase(sp.Marks.AppendMarked(make([]int64, 0, n)), sp)
	st.Assign = time.Since(t0)
	st.Objects = int64(len(plan.from))
	st.Words = plan.total
	st.Next = sp.ToBase + plan.total
	if sp.ToLimit != 0 && st.Next > sp.ToLimit {
		return st, fmt.Errorf("gc: %d live words overflow the %d-word copy target (heap too small for the live set)",
			plan.total, sp.ToLimit-sp.ToBase)
	}

	t0 = time.Now()
	runChunks(plan, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sp.Copy(plan.from[i], plan.to[i], plan.size[i])
		}
	})
	st.Copy = time.Since(t0)

	t0 = time.Now()
	var fixErr atomic.Pointer[error]
	runChunks(plan, workers, func(lo, hi int) {
		var offs []int64
		for i := lo; i < hi; i++ {
			to := plan.to[i]
			offs = sp.PtrOffsets(to, offs[:0])
			for _, off := range offs {
				v := sp.Mem[to+off]
				if v == 0 || !sp.InFrom(v) {
					continue
				}
				hd := sp.Mem[v]
				if hd >= 0 {
					// Reachable from a marked object yet never marked:
					// an engine invariant violation, not a user error.
					err := fmt.Errorf("gc: object %d reachable from %d was not marked", v, plan.from[i])
					fixErr.Store(&err)
					return
				}
				sp.Mem[to+off] = -hd - 1
			}
		}
	})
	// Root slots may alias (the same callee-save slot reconstructed
	// into several frames), so patch them serially; the translation is
	// idempotent because a patched slot no longer holds a from-space
	// address.
	for _, p := range roots {
		if v := *p; v != 0 && sp.InFrom(v) {
			*p = -sp.Mem[v] - 1
		}
	}
	st.Fixup = time.Since(t0)
	if e := fixErr.Load(); e != nil {
		return st, *e
	}
	return st, nil
}

// copyPlan is the assign phase's output: the canonical evacuation
// schedule, sorted by from-space address.
type copyPlan struct {
	from  []int64
	size  []int64
	to    []int64
	total int64
}

// assignPhase lays the marked objects, given in ascending (=
// allocation) address order, out contiguously from ToBase by prefix
// sums of their sizes. This is the determinism keystone: the layout
// depends only on the marked set.
func assignPhase(marked []int64, sp CopySpace) copyPlan {
	plan := copyPlan{
		from: marked,
		size: make([]int64, len(marked)),
		to:   make([]int64, len(marked)),
	}
	for i, a := range marked {
		s := sp.SizeOf(a)
		plan.size[i] = s
		plan.to[i] = sp.ToBase + plan.total
		plan.total += s
	}
	return plan
}

// runChunks partitions the plan into at most `workers` contiguous
// index ranges balanced by copied words and runs fn over them. The
// caller runs the last range itself, and all of them when one worker
// suffices or the plan is under inlineCopyWords. The partition is a
// pure function of the plan, but fn must be order-independent anyway:
// chunks run concurrently.
func runChunks(plan copyPlan, workers int, fn func(lo, hi int)) {
	n := len(plan.from)
	if n == 0 {
		return
	}
	workers = min(workers, n, runtime.GOMAXPROCS(0))
	if workers <= 1 || plan.total < inlineCopyWords {
		fn(0, n)
		return
	}
	target := (plan.total + int64(workers) - 1) / int64(workers)
	var wg sync.WaitGroup
	lo, acc := 0, int64(0)
	for i := 0; i < n-1; i++ {
		acc += plan.size[i]
		if acc >= target {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, i+1)
			lo, acc = i+1, 0
		}
	}
	fn(lo, n)
	wg.Wait()
}

// Mark-engine thresholds. They are fixed, not options; the comments
// give the measurements behind them (2-vCPU KVM guest, GOMAXPROCS=2).
const (
	// forkGray is the gray-stack depth past which the caller's serial
	// mark starts its helpers. Forking at a depth of 256 on the phase
	// benchmark's 20k-object tree, whose gray stack peaks at 1.6k
	// objects, measured 1.1–1.4× the serial mark at widths 2–8: the
	// hand-offs and the shared claim bitmap cost more than a frontier
	// that narrow returns. A stack above 4096 is at least ~200 µs of
	// serial scanning (that tree marks at 50–75 ns an object), room
	// for the helpers to pay their way. Chain-shaped heaps, whose gray
	// set never grows, always mark serially.
	forkGray = 4096
	// shareMin is the smallest private stack that gives half of itself
	// to a starving worker. Smaller stacks on a narrow frontier would
	// hand single objects back and forth at a lock round-trip each.
	shareMin = 8
	// spinPolls bounds how many times an idle helper yields and re-polls
	// the pool before it parks. A goroutine started while the other
	// vCPU idles took a median 1.8 ms (p10 0.7 ms) to run on the
	// reference host, longer than most whole marks, so idle workers
	// spin briefly before parking and the caller never parks at all.
	spinPolls = 64
	// inlineCopyWords is the plan size (in copied words) below which
	// runChunks runs copy and fixup inline on the caller. Timed alone,
	// with the other vCPU left idle between runs as it is between real
	// collections, the copy of BenchmarkCopyPhase's records took 46 vs.
	// 64 µs (serial vs. two chunks) at 16k words, 133 vs. 140 µs at 40k
	// and 259 vs. 238 µs at 80k. But a split also leaves half the
	// survivors in the other CPU's cache for the next collection's
	// mark: with the cut at 64k words, the perfbench collect workload's
	// traced mark ran 1.15× its width-1 time, and fixup saved less than
	// that. With the cut at 256k, mark and collection totals match
	// width 1.
	inlineCopyWords = 1 << 18
)

// markWorker is one participant in the mark: a private gray stack that
// only its owner touches (no lock), plus a count of what it claimed.
type markWorker struct {
	e      *markEngine
	gray   []int64
	offs   []int64
	marked int64
	steals int64
	err    error
}

// scan blackens a: every unclaimed from-space child is claimed,
// counted and pushed gray.
func (w *markWorker) scan(a int64) {
	sp := &w.e.sp
	w.offs = sp.PtrOffsets(a, w.offs[:0])
	for _, off := range w.offs {
		v := sp.Mem[a+off]
		if v == 0 {
			continue
		}
		if sp.Check != nil {
			if err := sp.Check(v); err != nil {
				if w.err == nil {
					w.err = err
				}
				continue
			}
		}
		if sp.InFrom(v) && sp.Marks.Claim(v) {
			w.marked++
			w.gray = append(w.gray, v)
		}
	}
}

// drain scans the private stack empty, giving the older half of it —
// the objects nearest the roots, so usually the largest subgraphs — to
// the pool whenever more workers are starving than batches wait there.
// The caller (worker 0, passing the pool width) also starts the
// helpers from here, once its stack outgrows forkGray; helpers pass 0.
func (w *markWorker) drain(workers int) {
	e := w.e
	for len(w.gray) > 0 {
		n := len(w.gray) - 1
		a := w.gray[n]
		w.gray = w.gray[:n]
		w.scan(a)
		if len(w.gray) < shareMin {
			continue
		}
		if workers > 1 && len(w.gray) > forkGray && len(e.workers) < workers {
			e.fork(workers)
		}
		if e.pool.hungry.Load() > e.pool.avail.Load() {
			k := len(w.gray) / 2
			e.pool.put(slices.Clone(w.gray[:k]))
			w.gray = append(w.gray[:0], w.gray[k:]...)
		}
	}
}

// markPool is the only state mark workers share besides the claim
// bitmap: batches of gray objects published by busy workers, and a
// count of the workers holding private work. There is no per-object
// counter: marking is over exactly when no worker holds work and no
// batch is left, so a worker takes the pool's lock once per batch it
// publishes or takes, never per object.
type markPool struct {
	mu      sync.Mutex
	cond    sync.Cond
	batches [][]int64
	busy    int // workers holding private work; the caller starts busy
	// Lock-free mirrors polled by busy and spinning workers.
	hungry atomic.Int32 // workers looking for a batch
	avail  atomic.Int32 // len(batches)
	done   atomic.Bool
}

func (p *markPool) put(b []int64) {
	p.mu.Lock()
	p.batches = append(p.batches, b)
	p.avail.Store(int32(len(p.batches)))
	p.mu.Unlock()
	p.cond.Signal()
}

// get is called by a worker whose private stack is empty; wasBusy says
// whether it was holding work (the caller always was; a helper only
// after its first batch). It returns the next batch, or ok=false once
// marking is complete. The caller passes park=false: it spins until
// the end rather than risk a slow wake-up inside the pause.
func (p *markPool) get(wasBusy, park bool) ([]int64, bool) {
	p.hungry.Add(1)
	defer p.hungry.Add(-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if wasBusy {
		p.busy--
	}
	for spins := 0; ; spins++ {
		if n := len(p.batches); n > 0 {
			b := p.batches[n-1]
			p.batches = p.batches[:n-1]
			p.avail.Store(int32(n - 1))
			p.busy++
			return b, true
		}
		if p.busy == 0 {
			p.done.Store(true)
			p.cond.Broadcast()
		}
		if p.done.Load() {
			return nil, false
		}
		if park && spins >= spinPolls {
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		for p.avail.Load() == 0 && !p.done.Load() && (!park || spins < spinPolls) {
			runtime.Gosched()
			spins++
		}
		p.mu.Lock()
	}
}

// markEngine holds what every mark worker reads: the space (with its
// claim bitmap) and the pool.
type markEngine struct {
	sp      CopySpace
	workers []*markWorker
	pool    markPool
}

// fork starts the helpers. They begin hungry and take work only as the
// busy workers publish it, so a helper the scheduler is slow to run
// costs nobody a wait: if marking ends first, it finds the pool done
// and exits without ever touching the heap.
func (e *markEngine) fork(workers int) {
	e.pool.cond.L = &e.pool.mu
	e.pool.busy = 1
	for len(e.workers) < workers {
		w := &markWorker{e: e}
		e.workers = append(e.workers, w)
		go func() {
			busy := false
			for {
				b, ok := e.pool.get(busy, true)
				if !ok {
					return
				}
				busy = true
				w.steals++
				w.gray = append(w.gray, b...)
				w.drain(0)
			}
		}()
	}
}

// claimRoots claims the from-space objects the root slots reference
// and returns them as the initial gray set. Roots are claimed serially,
// so a bad root is reported deterministically.
func claimRoots(roots []*int64, sp CopySpace) ([]int64, error) {
	var gray []int64
	for _, p := range roots {
		v := *p
		if v == 0 {
			continue
		}
		if sp.Check != nil {
			if err := sp.Check(v); err != nil {
				return nil, err
			}
		}
		if sp.InFrom(v) && sp.Marks.Claim(v) {
			gray = append(gray, v)
		}
	}
	return gray, nil
}

// markPhase claims the live set in sp.Marks (already Reset) and
// returns how many objects it claimed. The root values are claimed
// first (claimRoots), then the caller marks alone on its own
// goroutine. Only if its gray stack outgrows forkGray — a live set
// wide enough to pay for parallelism — does it start the other
// workers, which then share work through the pool until none is left
// anywhere.
func markPhase(roots []*int64, sp CopySpace, workers int) (marked, steals int64, err error) {
	gray, err := claimRoots(roots, sp)
	if err != nil {
		return 0, 0, err
	}
	// Workers beyond the scheduler's width could never run at once;
	// they would only add hand-offs.
	workers = min(workers, runtime.GOMAXPROCS(0))
	e := &markEngine{sp: sp}
	lead := &markWorker{e: e, gray: gray, marked: int64(len(gray))}
	e.workers = []*markWorker{lead}

	lead.drain(workers)
	for len(e.workers) > 1 {
		b, ok := e.pool.get(true, false)
		if !ok {
			break
		}
		lead.steals++
		lead.gray = append(lead.gray, b...)
		lead.drain(workers)
	}

	// Every worker that ever held work is idle and its last claim is
	// ordered before done by the pool's lock; helpers that never got
	// work never counted anything.
	for _, w := range e.workers {
		marked += w.marked
		steals += w.steals
		if err == nil {
			err = w.err
		}
	}
	return marked, steals, err
}
