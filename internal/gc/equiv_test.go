package gc_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/gc"
	"repro/internal/gctab"
	"repro/internal/heap"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// equivSchemes is the full 8-way encoding matrix: {full-info, δ-main}
// × {plain, previous, packing, packing+previous}.
var equivSchemes = []gctab.Scheme{
	{Full: true},
	{Full: true, Previous: true},
	{Full: true, Packing: true},
	{Full: true, Packing: true, Previous: true},
	{},
	{Previous: true},
	{Packing: true},
	{Packing: true, Previous: true},
}

// equivTraceWidths are the trace-copy pool widths the equivalence
// matrix compares: serial, then parallel pools of 2, 4 and 8.
var equivTraceWidths = []int{1, 2, 4, 8}

// fnvWords is FNV-1a over a word image (the same digest difftest uses
// for its cross-cell heap comparison).
func fnvWords(ws []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(w >> s))
			h *= 1099511628211
		}
	}
	return h
}

// equivRecorder wraps the real collector and logs, per collection, the
// frame-list signature (walked exactly as the collector will walk it)
// and, after the cycle, the full heap digest and survivor count — so
// two runs can be compared collection by collection, not just at exit.
type equivRecorder struct {
	real   *gc.Collector
	frames []string
	hashes []uint64
	live   []int64
}

func (r *equivRecorder) Collect(m *vmachine.Machine) error {
	frames, err := gc.WalkMachineN(m, r.real.Dec, r.real.WalkWorkers)
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, f := range frames {
		fmt.Fprintf(&b, "%s@%d fp=%d sp=%d;", f.View.ProcName, f.PC, f.FP, f.SP)
	}
	r.frames = append(r.frames, b.String())
	if err := r.real.Collect(m); err != nil {
		return err
	}
	r.hashes = append(r.hashes, fnvWords(m.Mem[m.HeapLo:m.HeapHi]))
	r.live = append(r.live, r.real.Heap.LiveObjects)
	return nil
}

// equivRun is everything one configuration's execution observed.
type equivRun struct {
	label   string
	out     string
	gcs     int64
	frames  []string
	hashes  []uint64
	live    []int64
	words   int64
	objects int64
	telly   map[string]int64 // final telemetry counters under comparison
}

func runEquivCell(t *testing.T, scheme gctab.Scheme, tw int) equivRun {
	t.Helper()
	opts := driver.NewOptions()
	opts.Multithreaded = true
	opts.Scheme = scheme
	opts.TraceWorkers = tw
	c := compileParallel(t, opts)

	tel := telemetry.New(telemetry.Config{})
	cfg := vmachine.Config{HeapWords: 1024, StackWords: 4096, MaxThreads: 8, Quantum: 53, Tel: tel}
	var sb strings.Builder
	cfg.Out = &sb
	m, col, err := c.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col.Debug = true
	for _, name := range []string{"W1", "W2", "W3"} {
		p := c.Prog.FindProc(name)
		if p < 0 {
			t.Fatalf("proc %s not found", name)
		}
		if _, err := m.Spawn(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := &equivRecorder{real: col}
	m.Collector = rec
	if err := m.Run(100_000_000); err != nil {
		t.Fatalf("scheme=%s tw=%d: %v (out=%q)", scheme, tw, err, sb.String())
	}
	snap := tel.Snapshot()
	return equivRun{
		label:   fmt.Sprintf("scheme=%s tw=%d", scheme, tw),
		out:     sb.String(),
		gcs:     m.GCCount,
		frames:  rec.frames,
		hashes:  rec.hashes,
		live:    rec.live,
		words:   col.WordsCopied,
		objects: col.ObjectsCopied,
		telly: map[string]int64{
			telemetry.CtrGCCollections:   snap.Counter(telemetry.CtrGCCollections),
			telemetry.CtrGCBytesCopied:   snap.Counter(telemetry.CtrGCBytesCopied),
			telemetry.CtrGCObjectsCopied: snap.Counter(telemetry.CtrGCObjectsCopied),
		},
	}
}

func compareEquivRuns(t *testing.T, base, r equivRun) {
	t.Helper()
	if r.out != base.out {
		t.Errorf("%s: output %q, %s had %q", r.label, r.out, base.label, base.out)
	}
	if r.gcs != base.gcs {
		t.Errorf("%s: %d collections, %s had %d", r.label, r.gcs, base.label, base.gcs)
	}
	if !reflect.DeepEqual(r.frames, base.frames) {
		for i := range base.frames {
			if i >= len(r.frames) || r.frames[i] != base.frames[i] {
				t.Errorf("%s: collection %d frame list\n  %q\nwant (%s)\n  %q",
					r.label, i, at(r.frames, i), base.label, at(base.frames, i))
				break
			}
		}
	}
	if !reflect.DeepEqual(r.hashes, base.hashes) {
		for i := range base.hashes {
			if i >= len(r.hashes) || r.hashes[i] != base.hashes[i] {
				t.Errorf("%s: heap digest after collection %d is %#x, %s had %#x",
					r.label, i, r.hashes[i], base.label, base.hashes[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(r.live, base.live) {
		t.Errorf("%s: survivor counts %v, %s had %v", r.label, r.live, base.label, base.live)
	}
	if r.words != base.words || r.objects != base.objects {
		t.Errorf("%s: copied %d words / %d objects, %s copied %d / %d",
			r.label, r.words, r.objects, base.label, base.words, base.objects)
	}
	if !reflect.DeepEqual(r.telly, base.telly) {
		t.Errorf("%s: telemetry %v, %s had %v", r.label, r.telly, base.label, base.telly)
	}
}

// TestTraceWorkersEquivalence is the acceptance matrix for the parallel
// trace-copy engine under the full collector: for every encoding scheme,
// a four-thread churn run at TraceWorkers 1, 2, 4 and 8 must be
// indistinguishable collection by collection — same frame lists, same
// post-cycle heap digests (which subsumes every forwarding decision),
// same survivor counts, same cumulative copy totals, and the same final
// telemetry counters. Run under -race in CI, it doubles as the data-race
// proof for the mark/copy/fixup pools.
func TestTraceWorkersEquivalence(t *testing.T) {
	for _, scheme := range equivSchemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			base := runEquivCell(t, scheme, equivTraceWidths[0])
			if base.out != parallelWant {
				t.Fatalf("%s: output %q, want %q", base.label, base.out, parallelWant)
			}
			if base.gcs == 0 {
				t.Fatal("no collections; nothing was compared")
			}
			for _, tw := range equivTraceWidths[1:] {
				compareEquivRuns(t, base, runEquivCell(t, scheme, tw))
			}
		})
	}
	// The churn program's heaps are short lists; the engine's serial
	// cut-over and its work sharing also need the heap shapes that
	// have hidden bugs, on both sides of the cut-over.
	// The last case is a DAG of 4-word nodes whose live set exceeds the
	// inline-copy cut, so copy and fixup split across workers too.
	type shapeCase struct {
		shape int
		n     int
	}
	var cases []shapeCase
	for i := range equivShapes {
		cases = append(cases, shapeCase{i, gc.ForkGray - 1}, shapeCase{i, gc.ForkGray + 1})
	}
	cases = append(cases, shapeCase{len(equivShapes) - 1, gc.InlineCopyWords/4 + 1})
	for _, c := range cases {
		shape := equivShapes[c.shape]
		t.Run(fmt.Sprintf("%s/%d", shape.name, c.n), func(t *testing.T) {
			// Pin the scheduler wide enough that every width really
			// runs that many workers.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(equivTraceWidths[len(equivTraceWidths)-1]))
			base := runShapeCell(t, shape.build, c.n, equivTraceWidths[0])
			for _, tw := range equivTraceWidths[1:] {
				r := runShapeCell(t, shape.build, c.n, tw)
				if !reflect.DeepEqual(r, base) {
					t.Errorf("tw=%d diverged from tw=%d:\n  %+v\nwant\n  %+v", tw, equivTraceWidths[0], r, base)
				}
			}
		})
	}
}

// Shape heaps hold two object kinds: a node (value word, then left
// and right pointers) and a fan (an open array of pointers).
const (
	shapeNode = 0
	shapeFan  = 1
)

// equivShapes are the heap shapes the width matrix marks. Each builder
// allocates a live set of at least n objects, with garbage interleaved
// so that survivors are not already compact, and returns the root. The
// widest gray set is n for the fans and 1 for the chain.
var equivShapes = []struct {
	name  string
	build func(h *heap.Heap, n int) int64
}{
	// chain: a singly linked list; the gray set never grows past one.
	{"chain", func(h *heap.Heap, n int) int64 {
		var head int64
		for i := 0; i < n; i++ {
			head = shapeAlloc(h, int64(i), head, 0)
			shapeAlloc(h, -1, 0, 0)
		}
		return head
	}},
	// wide-tree: one fan of n nodes, every fourth with a child, so
	// scanning the root alone makes the gray set n wide.
	{"wide-tree", func(h *heap.Heap, n int) int64 {
		fan, _ := h.TryAlloc(shapeFan, int64(n))
		for i := 0; i < n; i++ {
			var child int64
			if i%4 == 0 {
				child = shapeAlloc(h, int64(-i), 0, 0)
			}
			shapeAlloc(h, -1, 0, 0)
			h.Mem[fan+2+int64(i)] = shapeAlloc(h, int64(i), child, 0)
		}
		return fan
	}},
	// dag: a fan over n nodes whose edges share targets, so most
	// objects are discovered several times over and claims race.
	{"dag", func(h *heap.Heap, n int) int64 {
		nodes := make([]int64, n)
		for i := range nodes {
			nodes[i] = shapeAlloc(h, int64(i), 0, 0)
			shapeAlloc(h, -1, 0, 0)
		}
		for i, a := range nodes {
			h.Mem[a+2] = nodes[(i*7+3)%n]
			h.Mem[a+3] = nodes[(i+1)%n]
		}
		fan, _ := h.TryAlloc(shapeFan, int64(n))
		for i := range nodes {
			h.Mem[fan+2+int64(i)] = nodes[n-1-i]
		}
		return fan
	}},
}

// shapeAlloc allocates one node.
func shapeAlloc(h *heap.Heap, val, left, right int64) int64 {
	a, ok := h.TryAlloc(shapeNode, 0)
	if !ok {
		panic("shape heap too small")
	}
	h.Mem[a+1], h.Mem[a+2], h.Mem[a+3] = val, left, right
	return a
}

// shapeRun is what one width observed over a shape's collections.
type shapeRun struct {
	Marked  []uint64 // digest of the marked from-space addresses
	Hashes  []uint64 // FNV-1a of the whole heap after each collection
	Objects []int64
	Words   []int64
	GCs     int64
}

// runShapeCell builds the shape and collects three times at width tw:
// once as built, once after the root's first pointer field is cut, and
// once more with nothing changed, so survivors move twice.
func runShapeCell(t *testing.T, build func(*heap.Heap, int) int64, n, tw int) shapeRun {
	t.Helper()
	dt := types.NewDescTable()
	dt.Descs = append(dt.Descs,
		&types.Desc{ID: shapeNode, Kind: types.DescRecord, Name: "Node", DataWords: 3, PtrOffsets: []int64{1, 2}},
		&types.Desc{ID: shapeFan, Kind: types.DescOpenArray, Name: "Fan", ElemWords: 1, ElemPtrOffsets: []int64{0}},
	)
	words := int64(16 * (n + 64))
	mem := make([]int64, 16+2*words)
	h := heap.New(mem, 16, int64(len(mem)), dt)
	root := build(h, n)
	var r shapeRun
	for k := 0; k < 3; k++ {
		if k == 1 {
			h.Mem[root+2] = 0
		}
		lo, hi := h.FromSpan()
		marks := heap.NewMarkSet(lo, hi)
		st, err := gc.TraceCopy([]*int64{&root}, gc.CopySpace{
			Mem: mem, SpanLo: lo, SpanHi: hi,
			InFrom: h.Contains, SizeOf: h.SizeOf, PtrOffsets: h.PointerOffsets,
			Copy: h.CopyObjectSized, ToBase: h.BeginCollection(), Marks: marks,
		}, tw)
		if err != nil {
			t.Fatalf("tw=%d collection %d: %v", tw, k, err)
		}
		marked := marks.AppendMarked(nil)
		h.AddCopied(st.Objects)
		h.FinishCollection(st.Next)
		if err := h.Check(); err != nil {
			t.Fatalf("tw=%d collection %d: %v", tw, k, err)
		}
		r.Marked = append(r.Marked, fnvWords(marked))
		r.Hashes = append(r.Hashes, fnvWords(mem))
		r.Objects = append(r.Objects, st.Objects)
		r.Words = append(r.Words, st.Words)
	}
	r.GCs = h.Collections
	return r
}
