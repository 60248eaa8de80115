package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/vmachine"
)

// TaklBallastSource is takl under allocation pressure with a large
// retained live set: slabCount slabs, each holding a slabLen-element
// integer array, stay reachable for the whole run, so every collection
// marks thousands of objects and copies tens of thousands of words —
// the workload profile where parallel trace-copy can show a speedup.
// Plain pressured takl retains almost nothing (the live set is ~90
// words), which makes collections frequent but each one trivially
// small.
func TaklBallastSource(iters, slabCount, slabLen int) string {
	return fmt.Sprintf(`
MODULE Takl;
CONST X = 14; Y = 10; Z = 5; Iters = %d; Slabs = %d; SlabLen = %d;
TYPE List = REF RECORD head: INTEGER; tail: List; END;
TYPE Vec = REF ARRAY OF INTEGER;
TYPE Slab = REF RECORD v: Vec; next: Slab; END;

PROCEDURE Listn(n: INTEGER): List =
  VAR l: List;
  BEGIN
    IF n = 0 THEN RETURN NIL; END;
    l := NEW(List);
    l.head := n;
    l.tail := Listn(n - 1);
    RETURN l;
  END Listn;

PROCEDURE Shorterp(x, y: List): BOOLEAN =
  BEGIN
    IF y = NIL THEN RETURN FALSE; END;
    IF x = NIL THEN RETURN TRUE; END;
    RETURN Shorterp(x.tail, y.tail);
  END Shorterp;

PROCEDURE Mas(x, y, z: List): List =
  BEGIN
    IF NOT Shorterp(y, x) THEN RETURN z; END;
    RETURN Mas(Mas(x.tail, y, z), Mas(y.tail, z, x), Mas(z.tail, x, y));
  END Mas;

PROCEDURE Length(l: List): INTEGER =
  VAR n: INTEGER;
  BEGIN
    n := 0;
    WHILE l # NIL DO INC(n); l := l.tail; END;
    RETURN n;
  END Length;

VAR ballast: Slab; r: List; i, j, sum: INTEGER;
BEGIN
  FOR i := 1 TO Slabs DO
    WITH s = NEW(Slab) DO
      s.v := NEW(Vec, SlabLen);
      FOR j := 0 TO NUMBER(s.v) - 1 DO s.v[j] := i + j; END;
      s.next := ballast;
      ballast := s;
    END;
  END;
  FOR i := 1 TO Iters DO
    r := Mas(Listn(X), Listn(Y), Listn(Z));
  END;
  sum := 0;
  WHILE ballast # NIL DO sum := sum + ballast.v[0]; ballast := ballast.next; END;
  PutInt(Length(r)); PutChar(' '); PutInt(sum); PutLn();
END Takl.
`, iters, slabCount, slabLen)
}

// ParallelRow is one trace-worker width's measurement.
type ParallelRow struct {
	Workers     int           `json:"workers"`
	Collections int64         `json:"collections"`
	Pause       time.Duration `json:"pause_ns"`  // total collector time
	Mark        time.Duration `json:"mark_ns"`   // parallel mark phase
	Assign      time.Duration `json:"assign_ns"` // canonical address assignment
	Copy        time.Duration `json:"copy_ns"`   // parallel range copy
	Fixup       time.Duration `json:"fixup_ns"`  // parallel pointer fixup
	Steals      int64         `json:"steals"`
	CopiedWords int64         `json:"copied_words"`
	HeapHash    uint64        `json:"heap_hash"`
	Output      string        `json:"-"`
	// MarkMedian is the median of the interleaved mark-only timings at
	// this width (see markSampler); MarkRatio divides it by width 1's.
	MarkMedian  time.Duration `json:"mark_median_ns"`
	MarkSamples int           `json:"mark_samples"`
	MarkRatio   float64       `json:"mark_ratio"`
}

// MarkRatioBound is the parallel mark's gate: at no width may the
// median mark take longer than this multiple of the width-1 median.
const MarkRatioBound = 1.1

// ParallelComparison is the BENCH_5 measurement: the ballasted takl run
// at several trace-worker widths, with the bitwise-equivalence checks
// (outputs and final heap images identical) folded in.
type ParallelComparison struct {
	Program         string        `json:"program"`
	GoMaxProcs      int           `json:"gomaxprocs"`
	HeapWords       int64         `json:"heap_words"`
	Rows            []ParallelRow `json:"rows"`
	OutputsMatch    bool          `json:"outputs_match"`
	HeapsMatch      bool          `json:"heaps_match"`
	MarkCopySpeedup float64       `json:"mark_copy_speedup"` // widest row vs workers=1
	// MarkRatioOK reports the gate: every row's MarkRatio is within
	// MarkRatioBound.
	MarkRatioOK bool `json:"mark_ratio_ok"`
}

// markRounds is how many times markSampler marks each collection's
// heap at every width; a multiple of the width count, so each width
// leads a round equally often.
const markRounds = 8

// markSampler wraps a width-1 run's collector. Before each real
// collection it marks the about-to-be-collected heap from the same
// roots markRounds times at every width, rotating which width goes
// first, so every width's timings come from the same heaps at the same
// moments and host noise falls on all of them alike. Marking moves
// nothing, so the real collection that follows is undisturbed.
type markSampler struct {
	real    *gc.Collector
	widths  []int
	samples [][]time.Duration
}

func (s *markSampler) Collect(m *vmachine.Machine) error {
	frames, err := gc.WalkMachineN(m, s.real.Dec, s.real.WalkWorkers)
	if err != nil {
		return err
	}
	// Roots must hold base pointers while they are traced, exactly as
	// in a real collection; with nothing moved, re-deriving afterwards
	// restores every derived value bit for bit.
	if err := gc.AdjustDerivedN(m, frames, 1); err != nil {
		return err
	}
	h := s.real.Heap
	lo, hi := h.FromSpan()
	sp := gc.CopySpace{
		Mem: h.Mem, SpanLo: lo, SpanHi: hi,
		InFrom: h.Contains, SizeOf: h.SizeOf, PtrOffsets: h.PointerOffsets,
		Marks: heap.NewMarkSet(lo, hi),
	}
	roots := gc.CollectRoots(m, frames)
	// One untimed mark first: the mutator has just left the heap cold.
	if _, err := gc.MarkOnly(roots, sp, 1); err != nil {
		return err
	}
	for r := 0; r < markRounds; r++ {
		for k := range s.widths {
			i := (k + r) % len(s.widths)
			sp.Marks.Reset(lo, hi)
			st, err := gc.MarkOnly(roots, sp, s.widths[i])
			if err != nil {
				return err
			}
			s.samples[i] = append(s.samples[i], st.Mark)
		}
	}
	gc.RederiveAllN(m, frames, 1)
	return s.real.Collect(m)
}

// median returns the median of ds (sorting it in place).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// ParallelTraceComparison runs the ballasted takl benchmark at trace
// widths 1, 2, 4, and 8 under one heap budget, recording per-phase
// times and verifying that every width produces the same output and
// final heap image. One more width-1 run samples the mark alone at
// every width over each collection's heap (markSampler); the medians
// of those samples feed the MarkRatioBound gate, which a width that
// marks slower than serial fails on any host.
func ParallelTraceComparison(heapWords int64, iters int) (*ParallelComparison, error) {
	src := TaklBallastSource(iters, 1200, 30)
	c, err := driver.Compile("takl.m3", src, driver.Options{
		Optimize: true, GCSupport: true, Scheme: gctab.DeltaPP, DecodeCache: true,
	})
	if err != nil {
		return nil, err
	}
	res := &ParallelComparison{
		Program:      "takl+ballast",
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		HeapWords:    heapWords,
		OutputsMatch: true,
		HeapsMatch:   true,
	}
	widths := []int{1, 2, 4, 8}
	// run executes the program once at one width; with sampler set,
	// the sampler wraps the collector.
	run := func(workers int, sampler *markSampler) (ParallelRow, error) {
		c.Opts.TraceWorkers = workers
		cfg := vmachine.DefaultConfig()
		cfg.HeapWords = heapWords
		var out strings.Builder
		cfg.Out = &out
		m, col, err := c.NewMachine(cfg)
		if err != nil {
			return ParallelRow{}, err
		}
		if sampler != nil {
			sampler.real = col
			m.Collector = sampler
		}
		if err := m.Run(0); err != nil {
			return ParallelRow{}, fmt.Errorf("takl+ballast (tw=%d): %w", workers, err)
		}
		return ParallelRow{
			Workers:     workers,
			Collections: col.Collections,
			Pause:       col.TotalTime,
			Mark:        col.MarkTime,
			Assign:      col.AssignTime,
			Copy:        col.CopyTime,
			Fixup:       col.FixupTime,
			Steals:      col.Steals,
			CopiedWords: col.WordsCopied,
			HeapHash:    hashWords(m.Mem[m.HeapLo:m.HeapHi]),
			Output:      out.String(),
		}, nil
	}
	for _, workers := range widths {
		row, err := run(workers, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	// The mark samples come from a run of their own: sampling warms
	// the heap just before each real collection, which would flatter
	// whichever row's run carried the sampler.
	sampler := &markSampler{widths: widths, samples: make([][]time.Duration, len(widths))}
	sampled, err := run(1, sampler)
	if err != nil {
		return nil, err
	}
	base := res.Rows[0]
	if base.Collections == 0 {
		return nil, fmt.Errorf("takl+ballast never collected; grow iters or shrink the heap")
	}
	for _, r := range append(res.Rows[1:], sampled) {
		if r.Output != base.Output {
			res.OutputsMatch = false
		}
		if r.HeapHash != base.HeapHash {
			res.HeapsMatch = false
		}
	}
	res.MarkRatioOK = true
	base1 := median(sampler.samples[0])
	for i := range res.Rows {
		r := &res.Rows[i]
		r.MarkMedian = median(sampler.samples[i])
		r.MarkSamples = len(sampler.samples[i])
		if base1 > 0 {
			r.MarkRatio = float64(r.MarkMedian) / float64(base1)
		}
		if r.MarkRatio > MarkRatioBound {
			res.MarkRatioOK = false
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if mc := last.Mark + last.Copy; mc > 0 {
		res.MarkCopySpeedup = float64(base.Mark+base.Copy) / float64(mc)
	}
	return res, nil
}

// hashWords is FNV-1a over the heap word image (the difftest digest).
func hashWords(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}
