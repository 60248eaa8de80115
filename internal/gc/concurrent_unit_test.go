package gc

// White-box tests for MarkCycle, the concurrent cycle both precise
// collectors share: the SATB hook, black allocation, the bounded mark
// step, and hook disarming at the final pause. The end-to-end behavior
// (hostile mutators, fused-dispatch stores, soak) lives in
// concurrent_test.go; these pin the cycle's semantics directly.

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/types"
	"repro/internal/vmachine"
)

// Descriptor IDs of the test heap: Pair is a two-word record (payload
// word 0 an integer, word 1 a pointer); Fan an open array of pointers.
const (
	pairDesc = 0
	fanDesc  = 1
)

func concTestHeap(t *testing.T) *heap.Heap {
	t.Helper()
	descs := &types.DescTable{Descs: []*types.Desc{
		{ID: pairDesc, Kind: types.DescRecord, Name: "Pair", DataWords: 2, PtrOffsets: []int64{1}},
		{ID: fanDesc, Kind: types.DescOpenArray, Name: "Fan", ElemWords: 1, ElemPtrOffsets: []int64{0}},
	}}
	mem := make([]int64, 256)
	return heap.New(mem, 32, 224, descs)
}

// allocPair allocates one Pair{n, next} and returns its address.
func allocPair(t *testing.T, h *heap.Heap, n, next int64) int64 {
	t.Helper()
	addr, ok := h.TryAlloc(pairDesc, 0)
	if !ok {
		t.Fatal("test heap exhausted")
	}
	h.Mem[addr+1] = n
	h.Mem[addr+2] = next
	return addr
}

// startCycle starts a cycle over h's whole from-space quota, as the
// collector's initial pause does, with the given root values.
func startCycle(t *testing.T, m *vmachine.Machine, h *heap.Heap, roots ...int64) *MarkCycle {
	t.Helper()
	slots := make([]*int64, len(roots))
	for i := range roots {
		slots[i] = &roots[i]
	}
	mc, err := StartMarkCycle(m, (&Collector{Heap: h}).space(h.Limit), slots)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// stepToDone runs bursts of the given budget until marking completes
// and returns how many it took.
func stepToDone(t *testing.T, mc *MarkCycle, budget int) int {
	t.Helper()
	for steps := 1; steps <= 100; steps++ {
		if mc.Step(budget) {
			return steps
		}
	}
	t.Fatal("mark never terminated")
	return 0
}

func marks(mc *MarkCycle) *heap.MarkSet { return mc.w.e.sp.Marks }

func TestSATBRecordClaimsOnce(t *testing.T) {
	h := concTestHeap(t)
	a := allocPair(t, h, 1, 0)
	mc := startCycle(t, &vmachine.Machine{}, h)

	mc.logSATB(a)
	if !marks(mc).Marked(a) {
		t.Fatalf("overwritten value %d not claimed by the SATB hook", a)
	}
	if mc.Logged != 1 || len(mc.satb) != 1 {
		t.Fatalf("first log: Logged=%d satb=%d, want 1/1", mc.Logged, len(mc.satb))
	}
	// Claim-on-log: relogging the same value must not grow the buffer —
	// that is what bounds it by the object count, not the store count.
	mc.logSATB(a)
	if mc.Logged != 1 || len(mc.satb) != 1 {
		t.Fatalf("relog grew the buffer: Logged=%d satb=%d, want 1/1", mc.Logged, len(mc.satb))
	}
}

func TestSATBRecordIgnoresNonHeapValues(t *testing.T) {
	h := concTestHeap(t)
	mc := startCycle(t, &vmachine.Machine{}, h)
	for _, v := range []int64{0, 1, h.FromLo - 1, h.Alloc, h.Limit + 10} {
		mc.logSATB(v)
	}
	if mc.Logged != 0 || len(mc.satb) != 0 {
		t.Fatalf("non-heap values logged: Logged=%d satb=%d", mc.Logged, len(mc.satb))
	}
}

func TestBlackAllocMarksWithoutGraying(t *testing.T) {
	h := concTestHeap(t)
	mc := startCycle(t, &vmachine.Machine{}, h)
	a := allocPair(t, h, 1, 0)
	mc.allocBlack(a)
	if !marks(mc).Marked(a) {
		t.Fatalf("black allocation %d not claimed", a)
	}
	if !mc.Idle() {
		t.Fatalf("black allocation grayed: gray=%d satb=%d", len(mc.w.gray), len(mc.satb))
	}
}

func TestMarkStepBoundedAndFoldsSATB(t *testing.T) {
	h := concTestHeap(t)
	// A chain c3 -> c2 -> c1 plus two standalone cells logged via SATB.
	c1 := allocPair(t, h, 1, 0)
	c2 := allocPair(t, h, 2, c1)
	c3 := allocPair(t, h, 3, c2)
	s1 := allocPair(t, h, 4, 0)
	s2 := allocPair(t, h, 5, 0)

	// Seed the chain head as the initial pause would, then let the
	// mutator overwrite two references mid-mark.
	mc := startCycle(t, &vmachine.Machine{}, h, c3)
	mc.logSATB(s1)
	mc.logSATB(s2)

	// Budget 1 scans one object per increment: the SATB fold plus the
	// chain need strictly more than one step.
	if steps := stepToDone(t, mc, 1); steps < 3 {
		t.Fatalf("budget 1 finished in %d steps; increments are not bounded", steps)
	}
	for _, a := range []int64{c1, c2, c3, s1, s2} {
		if !marks(mc).Marked(a) {
			t.Fatalf("object %d unmarked after drain", a)
		}
	}
	if n := len(marks(mc).AppendMarked(nil)); n != 5 {
		t.Fatalf("marked set has %d objects, want 5", n)
	}
}

// TestMarkStepWideFanOut pins the gray-stack aliasing fix in Step: a
// burst is carved off the gray stack's tail, and scanning it pushes
// discoveries back onto the stack. When one batch object has more
// children than the batch has entries, those pushes would overwrite
// the unread rest of the batch unless the remainder's capacity is cut
// — here the second root, whose child is reachable from nowhere else.
func TestMarkStepWideFanOut(t *testing.T) {
	h := concTestHeap(t)
	const fan = 5
	f, ok := h.TryAlloc(fanDesc, fan)
	if !ok {
		t.Fatal("test heap exhausted")
	}
	for i := int64(0); i < fan; i++ {
		h.Mem[f+2+i] = allocPair(t, h, i, 0)
	}
	x := allocPair(t, h, 100, 0)
	g := allocPair(t, h, 101, x)

	mc := startCycle(t, &vmachine.Machine{}, h, f, g)
	stepToDone(t, mc, 2)
	if !marks(mc).Marked(x) {
		t.Fatalf("child %d of the second batch root was never scanned", x)
	}
	if n := len(marks(mc).AppendMarked(nil)); n != fan+3 {
		t.Fatalf("marked set has %d objects, want %d", n, fan+3)
	}
}

// TestMarkCycleHooksNilAfterFinish checks that the hooks are armed for
// exactly the cycle: StartMarkCycle installs them on the machine, and
// Finish, after copying what they claimed, removes them, so stores and
// allocations between cycles cost nothing and claim nothing.
func TestMarkCycleHooksNilAfterFinish(t *testing.T) {
	h := concTestHeap(t)
	root := allocPair(t, h, 1, 0)
	allocPair(t, h, 2, 0) // garbage
	m := &vmachine.Machine{}
	mc := startCycle(t, m, h, root)
	if m.SATB == nil || m.AllocMark == nil {
		t.Fatal("StartMarkCycle did not arm the SATB and AllocMark hooks")
	}
	logged := allocPair(t, h, 3, 0)
	m.SATB(logged)
	black := allocPair(t, h, 4, 0)
	m.AllocMark(black)

	stepToDone(t, mc, 0)
	st, err := mc.Finish(m, []*int64{&root}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.SATB != nil || m.AllocMark != nil {
		t.Fatal("hooks still armed after Finish")
	}
	// The root, the logged value and the black allocation survive; the
	// garbage cell does not.
	if st.Objects != 3 || mc.Logged != 1 {
		t.Fatalf("Finish copied %d objects with %d logged, want 3 and 1", st.Objects, mc.Logged)
	}
}

// TestMarkCycleFinishRefusesUnfinishedMark checks that Finish does not
// copy while objects are still gray: the bursts must have run out of
// work first, or the copy would leave their children behind.
func TestMarkCycleFinishRefusesUnfinishedMark(t *testing.T) {
	h := concTestHeap(t)
	child := allocPair(t, h, 2, 0)
	root := allocPair(t, h, 1, child)
	m := &vmachine.Machine{}
	mc := startCycle(t, m, h, root)
	if _, err := mc.Finish(m, []*int64{&root}, 1); err == nil {
		t.Fatal("Finish copied with the root still gray")
	}
}
